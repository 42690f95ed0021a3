"""The CI scripts: the tier-1 junit check, the source line count and the
untested-line finder."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / ".github" / "scripts"


def load_script(monkeypatch, name):
    """Import .github/scripts/<name>.py by path, under a sys.modules entry
    that monkeypatch removes again."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


# -- check_tier1.problems ---------------------------------------------------------

RED = "test_criterion_5_markov_stabilization_type_B"
RED_MESSAGE = "AssertionError: type-B stabilization changes the group: 80 mismatches"


def _case(name, outcome=None, message=""):
    child = f'<{outcome} message="{message}">trace</{outcome}>' if outcome else ""
    return f'<testcase classname="tests.test_acceptance" name="{name}">{child}</testcase>'


def _problems(monkeypatch, tmp_path, *cases):
    check = load_script(monkeypatch, "check_tier1")
    path = tmp_path / "tier1.xml"
    path.write_text(f'<testsuites><testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>')
    return check.problems(str(path))


def test_only_the_red_test_failing_on_its_reason_passes(monkeypatch, tmp_path):
    cases = (_case("test_a"), _case(RED, "failure", RED_MESSAGE))
    assert _problems(monkeypatch, tmp_path, *cases) == []


def test_red_test_passing_is_a_problem(monkeypatch, tmp_path):
    found = _problems(monkeypatch, tmp_path, _case("test_a"), _case(RED))
    assert found == [f"{RED} did not fail on its stabilization mismatch"]


def test_red_test_failing_for_another_reason_is_a_problem(monkeypatch, tmp_path):
    for outcome in ("failure", "error"):
        found = _problems(monkeypatch, tmp_path, _case(RED, outcome, "ImportError: no module"))
        assert found == [f"{RED} did not fail on its stabilization mismatch"], outcome


def test_another_failure_is_a_problem(monkeypatch, tmp_path):
    cases = (_case("test_a", "failure", "assert 1 == 2"), _case(RED, "failure", RED_MESSAGE))
    found = _problems(monkeypatch, tmp_path, *cases)
    assert found == ["tests.test_acceptance::test_a: failure: assert 1 == 2"]


def test_red_test_absent_is_a_problem(monkeypatch, tmp_path):
    found = _problems(monkeypatch, tmp_path, _case("test_a"))
    assert found == [f"{RED} did not run"]


# -- src_lines.count --------------------------------------------------------------

SNIPPET = '''\
"""Module docstring,
over two lines."""

# a comment line
import os


class K:
    """Class docstring."""

    def f(self):
        """Function docstring,
        over two lines."""
        x = (1,
             2)  # a trailing comment
        return x
'''


def test_src_lines_counts_code_only(monkeypatch):
    src_lines = load_script(monkeypatch, "src_lines")
    # Code: import, class, def, both lines of the assignment, return.
    assert src_lines.count(SNIPPET) == (16, 6)


def test_src_lines_counts_public_names(monkeypatch):
    src_lines = load_script(monkeypatch, "src_lines")
    assert src_lines.public_names(SNIPPET) == 0
    exported = SNIPPET.replace("import os\n", 'import os\n\n__all__ = ["K", "f"]\n')
    assert src_lines.public_names(exported) == 2
    assert src_lines.count(exported)[1] == 7


# -- untested_lines.untested_lines ------------------------------------------------

BRANCHY = '''\
def f(x):
    if x:
        return 1
    return 2


def main():  # pragma: no cover
    print(f(0))


if __name__ == "__main__":  # pragma: no cover
    main()
'''


def test_untested_lines_lists_the_branch_never_taken(monkeypatch):
    untested = load_script(monkeypatch, "untested_lines")
    # Lines 1 and 2 and the return on line 4 ran; the pragma statements
    # (lines 7 to 8 and 11 to 12) are never listed.
    assert untested.untested_lines(BRANCHY, {1, 2, 4}) == [3]
    assert untested.untested_lines(BRANCHY, set()) == [1, 2, 3, 4]
    assert untested.untested_lines(BRANCHY, {1, 2, 3, 4}) == []


def test_untested_lines_reads_nested_code_objects(monkeypatch):
    untested = load_script(monkeypatch, "untested_lines")
    source = "def f():\n    def g():\n        return [x for x in ()]\n    return g\n"
    assert untested.untested_lines(source, {1, 2, 4}) == [3]
