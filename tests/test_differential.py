import shutil

import differential


def test_harness_finds_no_difference_against_a_copy_of_itself(tmp_path):
    # Checks the harness, not a change: a copy of src/ without .git.
    shutil.copytree(
        differential.ROOT / "src" / "swhid",
        tmp_path / "src" / "swhid",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    # Two resolve cases keep the test fast; the script runs all twelve.
    modes = ("ok", "refused CONNECT")
    counts, differences = differential.compare(tmp_path / "src", seeds=(), modes=modes)
    assert {surface: n > 0 for surface, n in counts.items()} == {
        "identify": True, "verify": True, "resolve": True
    }
    assert differences == []
