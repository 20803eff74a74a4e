import shutil

import differential


def test_harness_finds_no_difference_against_a_copy_of_itself(tmp_path):
    # Checks the harness, not a change: a copy of src/ without .git.
    shutil.copytree(
        differential.ROOT / "src" / "swhid",
        tmp_path / "src" / "swhid",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    # A handful of contract rows keeps the test fast; the script runs them all.
    modes = (
        "identify-odd-exclude-json", "parse-json", "extract-lines-pipe", "resolve-check-fetch",
        "resolve-refused-connect",
    )
    counts, differences = differential.compare(tmp_path / "src", seeds=(), modes=modes)
    assert counts["contract"] == len(modes)
    assert {surface: n > 0 for surface, n in counts.items()} == {
        "contract": True, "verify": True, "documents": True
    }
    assert differences == []
