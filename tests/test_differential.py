import shutil

import differential


def test_harness_finds_no_difference_against_a_copy_of_itself(tmp_path):
    # Checks the harness, not a change: a copy of src/ without .git.
    shutil.copytree(
        differential.ROOT / "src" / "swhid",
        tmp_path / "src" / "swhid",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    count, differences = differential.compare(tmp_path / "src", seeds=())
    assert (count > 0, differences) == (True, [])
