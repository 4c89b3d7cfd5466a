"""The README's Library example runs as written, and its null-acceptance
table is what null_calibration measures."""

import re
from pathlib import Path

import pytest

import spdmark.verifier
from spdmark.verifier import null_calibration

README = Path(__file__).resolve().parent.parent / "README.md"

# (T, tau_v, null videos accepted under the identity alignment and under the
# best alignment, of 300, and matched_pass_inflation rounded) at M = 28,
# gamma_f = 1e-3, gamma_v = 1e-6, seed 1.
NULL_ACCEPTANCE = [(25, 3, 0, 1, 23), (50, 4, 0, 10, 48), (100, 4, 0, 184, 91)]


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md (Library)", "exec"), {})


def test_null_acceptance_table_is_quoted():
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| (\d+) \| (\d+) \| (\d+)/300 \| (\d+)/300 \| (\d+)× \|$",
                      text, re.MULTILINE)
    assert [tuple(map(int, row)) for row in rows] == NULL_ACCEPTANCE
    accepted = ", ".join(str(row[3]) for row in NULL_ACCEPTANCE[:-1])
    quote = f"accepted {accepted} and {NULL_ACCEPTANCE[-1][3]} of 300"
    assert quote in " ".join(spdmark.verifier.__doc__.split())


@pytest.mark.parametrize("row", NULL_ACCEPTANCE, ids=lambda row: f"T={row[0]}")
def test_null_acceptance_table_matches_null_calibration(row):
    report = null_calibration(28, row[0], 1e-3, 1e-6, 300, seed=1)
    assert (
        report["tau_v"],
        report["identity_valid_count"],
        report["matched_valid_count"],
        round(report["matched_pass_inflation"]),
    ) == row[1:]
