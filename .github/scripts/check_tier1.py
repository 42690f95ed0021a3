"""Check a tier-1 junit report: every test passes but the one kept red.

test_criterion_5_markov_stabilization_type_B must fail, and on its
stabilization mismatch: the type-B action does not give a link invariant
(ROADMAP aim 3).  Any other failure or error, a pass of that test or its
absence fails the check.

    python .github/scripts/check_tier1.py tier1.xml
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

KEPT_RED = "test_criterion_5_markov_stabilization_type_B"
RED_REASON = "type-B stabilization changes the group"


def problems(path: str) -> list[str]:
    found = []
    red = None
    for case in ET.parse(path).getroot().iter("testcase"):
        name = f"{case.get('classname')}::{case.get('name')}"
        bad = [child for child in case if child.tag in ("failure", "error")]
        if case.get("name") == KEPT_RED:
            red = bad
        elif bad:
            found += [f"{name}: {child.tag}: {child.get('message')}" for child in bad]
    if red is None:
        found.append(f"{KEPT_RED} did not run")
    elif not any(c.tag == "failure" and RED_REASON in (c.get("message") or "") for c in red):
        found.append(f"{KEPT_RED} did not fail on its stabilization mismatch")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    found = problems(argv[0])
    for line in found:
        print(line)
    if not found:
        print(f"tier-1 ok: only {KEPT_RED} fails")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
