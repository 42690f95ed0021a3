import json
import time

import pytest

from braidact import cli, localrep, words
from braidact.cli import main

from .util import cli_in_child


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_valid_quad(self, capsys):
        code, out, _ = run(capsys, "verify", "--quad", "a,b,a,b")
        assert code == 0
        assert "valid: yes" in out
        assert "family: T" in out

    def test_invalid_quad_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--quad", "a,b,b,a")
        assert code == 1
        assert "[M] FAIL" in out

    def test_pair_cross_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--pair", "abA,a;abA,a")
        assert code == 0
        assert "braid-relation cross-check: ok" in out

    def test_pair_with_non_basis_core_reports(self, capsys):
        code, out, _ = run(capsys, "verify", "--pair", "aa,b;a,b")
        assert code == 1
        assert "[aut_ab] FAIL" in out
        assert "cross-check" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--quad", "abA,a,abA,a", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["valid"] is True
        assert data["family"] == "A1:r=1"

    def test_parse_error_exits_one(self, capsys):
        code, _, err = run(capsys, "verify", "--quad", "nonsense")
        assert code == 1
        assert "error:" in err

    def test_pair_syntax_error_exits_one(self, capsys):
        code, out, err = run(capsys, "verify", "--pair", "abA,a")
        assert (code, out) == (1, "")
        assert err == "error: expected 'A,B;C,D' pair syntax, got 'abA,a'\n"

    def test_word_over_three_generators_exits_one(self, capsys):
        # The basis test is the one refusal of words over more than a, b.
        code, out, err = run(capsys, "verify", "--quad", "x3,b,a,b")
        assert (code, out) == (1, "")
        assert err == "error: basis test is defined for words over a, b only\n"

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestClassify:
    def test_small_search(self, capsys):
        code, out, _ = run(capsys, "classify", "--max-len", "1")
        assert code == 0
        assert "canonical classes with word length <= 1: 7" in out

    def test_json_schema_and_determinism(self, capsys):
        code, out1, _ = run(capsys, "classify", "--max-len", "1", "--json")
        assert code == 0
        code, out2, _ = run(capsys, "classify", "--max-len", "1", "--json")
        assert out1 == out2
        data = json.loads(out1)
        assert data["count"] == 7
        assert len(data["classes"]) == 7

    def test_search_budget_counts_every_quad(self, capsys, monkeypatch):
        # Length 3 has 450 candidate quads: the 18 matrix pairs of the table,
        # each with basis pairs at length 3, over 55 basis pairs.  One quad
        # over the budget is refused, with no output.
        monkeypatch.setattr(localrep, "MAX_SEARCH_QUADS", 449)
        for json_flag in ((), ("--json",)):
            code, out, err = run(capsys, "classify", "--max-len", "3", *json_flag)
            assert code == 1
            assert out == ""
            assert err == (
                "error: classification search refused: 450 quads exceeds the budget of 449\n"
            )
        monkeypatch.setattr(localrep, "MAX_SEARCH_QUADS", 450)
        code, out, _ = run(capsys, "classify", "--max-len", "3")
        assert code == 0
        assert "canonical classes with word length <= 3: 16" in out

    def test_length_13_is_refused(self, capsys):
        code, out, err = run(capsys, "classify", "--max-len", "13")
        assert code == 1
        assert out == ""
        assert err == (
            "error: classification search refused: 38211282 quads exceeds the budget "
            "of 10000000\n"
        )

    @pytest.mark.parametrize("max_len", [17, 21, 25, 1000000])
    def test_long_searches_refused_at_once(self, capsys, max_len):
        # The T pair alone passes the budget from length 15 on, so these are
        # refused before any basis pair is built, with a lower bound.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "classify", "--max-len", str(max_len))
        assert time.perf_counter() - t0 < 2
        assert code == 1
        assert out == ""
        assert err == (
            "error: classification search refused: at least 19123129 quads exceeds the "
            "budget of 10000000\n"
        )


class TestCatalog:
    def test_single_family(self, capsys):
        code, out, _ = run(capsys, "catalog", "--family", "D4")
        assert code == 0
        assert "D4: (abA,bbA,Aba,Abb)" in out

    def test_parametrized_family(self, capsys):
        code, out, _ = run(capsys, "catalog", "--family", "A1", "--r", "2")
        assert code == 0
        assert "A1:r=2: (aabAA,a,aabAA,a)" in out

    def test_all_decorations(self, capsys):
        code, out, _ = run(capsys, "catalog", "--family", "B1", "--all-decorations")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert len({line.split(": ")[0] for line in lines}) == 8

    def test_missing_r_exits_one(self, capsys):
        code, _, err = run(capsys, "catalog", "--family", "A1")
        assert code == 1
        assert "needs a parameter" in err

    def test_bad_or_repeated_r_exits_one(self, capsys):
        reasons = {
            "A1:r=x": "bad parameter 'r=x' in 'A1:r=x'",
            "A1:r=1.5": "bad parameter 'r=1.5' in 'A1:r=1.5'",
            "A1:r=1:r=2": "repeated parameter 'r=2' in 'A1:r=1:r=2'",
        }
        for family, reason in reasons.items():
            code, out, err = run(capsys, "catalog", "--family", family)
            assert code == 1
            assert out == ""
            assert err == f"error: {reason}\n"
        code, out, err = run(
            capsys, "invariant", "--rep", "wada:A1:r=", "--n", "2", "--braid", "1"
        )
        assert (code, out, err) == (1, "", "error: bad parameter 'r=' in 'A1:r='\n")

    def test_r_in_both_family_and_option_exits_one(self, capsys):
        code, out, err = run(capsys, "catalog", "--family", "A1:r=2", "--r", "3")
        assert (code, out) == (1, "")
        assert err == "error: --family A1:r=2 and --r 3 both give the parameter r\n"

    def test_decoration_with_all_decorations_exits_one(self, capsys):
        code, out, err = run(capsys, "catalog", "--family", "A1:-s", "--r", "1", "--all-decorations")
        assert (code, out) == (1, "")
        assert err == "error: --family A1:-s and --all-decorations both give the decoration\n"
        code, out, _ = run(capsys, "catalog", "--family", "A1", "--r", "2", "--all-decorations")
        assert code == 0
        assert len(out.strip().splitlines()) == 8

    def test_repeated_decoration_exits_one(self, capsys):
        for family, part in (("D2:-:-", "-"), ("D2:s:-s", "-s")):
            code, out, err = run(capsys, "catalog", "--family", family)
            assert (code, out) == (1, "")
            assert err == f"error: repeated decoration '{part}' in '{family}'\n"

    @pytest.mark.parametrize("decoration", ["", "s", "bw", "sbw"])
    def test_long_family_prints_catalog_quad_quickly(self, capsys, decoration):
        # The command prints the catalog's quad without re-checking it, so it
        # stays linear in r.  The inverse decoration goes through
        # AutF2.inverse, which is still quadratic in r.
        fid = localrep.FamilyId("A1", 20000, swap="s" in decoration, backward="bw" in decoration)
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "catalog", "--family", f"A1:{decoration}", "--r", "20000")
        assert time.perf_counter() - t0 < 2
        assert code == 0
        assert out == f"{fid}: ({localrep.catalog(fid)})\n"


class TestGamma:
    def test_dot_file(self, capsys, tmp_path):
        path = tmp_path / "a1.dot"
        code, out, _ = run(capsys, "gamma", "--family", "A", "--r", "1", "--dot", str(path))
        assert code == 0
        assert "4 vertices, 8 edges" in out
        dot = path.read_text()
        assert dot.startswith("digraph gamma {")
        assert dot.count("->") == 8

    def test_stdout_deterministic(self, capsys):
        code, out1, _ = run(capsys, "gamma", "--family", "D", "--dot", "-")
        code, out2, _ = run(capsys, "gamma", "--family", "D", "--dot", "-")
        assert out1 == out2

    def test_unknown_component(self, capsys):
        code, _, err = run(capsys, "gamma", "--family", "X", "--dot", "-")
        assert code == 1
        assert err == "error: unknown component 'X' (one of T, T', A, B, C, D)\n"

    def test_unwritable_dot_path_exits_one(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.dot"
        code, out, err = run(capsys, "gamma", "--family", "D", "--dot", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert not path.parent.exists()

    def test_r_on_fixed_component_exits_one(self, capsys):
        code, out, err = run(capsys, "gamma", "--family", "B", "--r", "3", "--dot", "-")
        assert code == 1
        assert out == ""
        assert err == "error: component B takes no parameter r\n"

    def test_a_component_without_r_exits_one(self, capsys):
        code, out, err = run(capsys, "gamma", "--family", "A", "--dot", "-")
        assert (code, out) == (1, "")
        assert err == "error: component A needs a parameter r >= 0\n"


class TestAct:
    def test_artin_action(self, capsys):
        code, out, _ = run(capsys, "act", "--rep", "artin", "--n", "3", "--braid", "1")
        assert code == 0
        assert out.strip() == "x1 -> x1 x2 X1; x2 -> x1; x3 -> x3"

    def test_explicit_cores(self, capsys):
        code, out, _ = run(
            capsys, "act", "--rep", "cores:B,a;b,A", "--braid", "1 2"
        )
        assert code == 0
        assert "x1 ->" in out

    def test_invalid_cores_exit_one(self, capsys):
        code, _, err = run(capsys, "act", "--rep", "cores:a,b;b,a", "--braid", "1")
        assert code == 1
        assert "do not define" in err

    def test_two_strand_non_basis_core_exits_one(self, capsys):
        for argv in (
            ("act", "--rep", "cores:aa,b", "--braid", "1 1"),
            ("invariant", "--rep", "cores:aa,b", "--braid", "1", "--homs", "Z3"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1
            assert out == ""
            assert err == "error: core 1 (aa,b) is not a basis of F_2\n"

    def test_bad_braid_exits_one(self, capsys):
        code, _, err = run(capsys, "act", "--rep", "artin", "--n", "2", "--braid", "7")
        assert code == 1

    def test_oversized_images_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(words, "MAX_IMAGE_LETTERS", 7)
        code, out, err = run(capsys, "act", "--rep", "artin", "--n", "2", "--braid", "1 1 1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: braid image has 8 letters after crossing 2")

    def test_missing_n_exits_one(self, capsys):
        for rep, kind in (("artin", "the artin rep"), ("wada:C1", "wada reps")):
            code, out, err = run(capsys, "act", "--rep", rep, "--braid", "1")
            assert (code, out) == (1, "")
            assert err == f"error: --n is required for {kind}\n"

    def test_unknown_rep_spec_exits_one(self, capsys):
        code, out, err = run(capsys, "act", "--rep", "bogus", "--n", "3", "--braid", "1")
        assert (code, out) == (1, "")
        assert err == "error: unknown rep spec 'bogus' (use artin, wada:FAMILY, cores:A,B;...)\n"


class TestInvariant:
    def test_trefoil_text(self, capsys):
        code, out, _ = run(
            capsys,
            "invariant", "--rep", "artin", "--n", "2", "--braid", "1 1 1",
            "--homs", "S3",
        )
        assert code == 0
        assert "hom count into S3: 12" in out
        assert "abelianization (invariant factors, 0 = free): [0]" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "invariant", "--rep", "wada:B1", "--n", "2", "--braid", "1 1 1",
            "--homs", "S3,Z5", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"generators", "relators", "abelianization", "hom_counts"}
        assert data["generators"] == 2
        assert set(data["hom_counts"]) == {"S3", "Z5"}

    def test_golden_output_into_nonabelian_groups(self, capsys):
        argv = (
            "invariant", "--rep", "artin", "--n", "3", "--braid", "1 -2 1 -2",
            "--homs", "S3,S4,D4",
        )
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (
            "presentation: gens: 3; relators: x1 x3 X1 X3 x2 x3 x1 X3 X1 X1, x1 x3 X1 X2, "
            "X3 X2 x3 x1 X3 x2\n"
            "simplified: gens: 2; relators: bABabAbaBA, BaBAbaBabA\n"
            "abelianization (invariant factors, 0 = free): [0]\n"
            "hom count into D4: 8\n"
            "hom count into S3: 6\n"
            "hom count into S4: 48\n"
        )
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert out == (
            '{\n  "abelianization": [\n    0\n  ],\n  "generators": 3,\n'
            '  "hom_counts": {\n    "D4": 8,\n    "S3": 6,\n    "S4": 48\n  },\n'
            '  "relators": [\n    "x1 x3 X1 X3 x2 x3 x1 X3 X1 X1",\n    "x1 x3 X1 X2",\n'
            '    "X3 X2 x3 x1 X3 x2"\n  ]\n}\n'
        )

    def test_golden_output_of_a_split_link(self, capsys):
        # The Hopf link plus a split unknot: x3 is a free factor of its own.
        argv = (
            "invariant", "--rep", "artin", "--n", "3", "--braid", "1 1",
            "--homs", "S3,S4,Z2",
        )
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (
            "presentation: gens: 3; relators: x1 x2 x1 X2 X1 X1, x1 x2 X1 X2\n"
            "simplified: gens: 3; relators: x2 x1 X2 X1, x1 x2 X1 X2\n"
            "abelianization (invariant factors, 0 = free): [0, 0, 0]\n"
            "hom count into S3: 108\n"
            "hom count into S4: 2880\n"
            "hom count into Z2: 8\n"
        )
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert out == (
            '{\n  "abelianization": [\n    0,\n    0,\n    0\n  ],\n  "generators": 3,\n'
            '  "hom_counts": {\n    "S3": 108,\n    "S4": 2880,\n    "Z2": 8\n  },\n'
            '  "relators": [\n    "x1 x2 x1 X2 X1 X1",\n    "x1 x2 X1 X2"\n  ]\n}\n'
        )

    def test_wada_alias_with_r(self, capsys):
        code, out, _ = run(
            capsys, "invariant", "--rep", "wada:A1:r=1", "--n", "2", "--braid", "1 1 1"
        )
        assert code == 0
        assert "abelianization" in out

    def test_repeated_group_name_exits_one(self, capsys):
        for homs in ("S3,S3", "Z2,S3,S3"):
            code, out, err = run(
                capsys,
                "invariant", "--rep", "artin", "--n", "2", "--braid", "1 1 1",
                "--homs", homs,
            )
            assert (code, out, err) == (1, "", "error: repeated group name 'S3' in --homs\n")

    def test_empty_group_names_are_skipped(self, capsys):
        argv = ("invariant", "--rep", "artin", "--n", "2", "--braid", "1 1 1", "--homs")
        plain = run(capsys, *argv, "Z2,S3")
        assert plain[0] == 0 and "hom count into Z2: 2" in plain[1]
        assert run(capsys, *argv, "Z2,,S3") == plain

    def test_large_dihedral_group_exits_one(self, capsys):
        code, out, err = run(
            capsys,
            "invariant", "--rep", "artin", "--n", "2", "--braid", "1 1 1",
            "--homs", "D129",
        )
        assert (code, out) == (1, "")
        assert err == "error: dihedral group D129 is too large for table form\n"

    def test_unsupported_builtin_group_reports_its_reason(self, capsys):
        reasons = {
            "Z1000": "cyclic group Z1000 is too large for table form",
            "S7": "symmetric groups are supported for 1 <= n <= 6",
        }
        for name, reason in reasons.items():
            code, out, err = run(
                capsys,
                "invariant", "--rep", "artin", "--n", "2", "--braid", "1",
                "--homs", name,
            )
            assert code == 1
            assert out == ""
            assert err == f"error: {reason}\n"

    def test_zero_order_builtin_group_reports_its_reason(self, capsys):
        reasons = {
            "Z0": "cyclic group order must be >= 1",
            "S0": "symmetric groups are supported for 1 <= n <= 6",
            "D0": "dihedral groups are supported for n >= 2",
        }
        for name, reason in reasons.items():
            code, out, err = run(
                capsys,
                "invariant", "--rep", "artin", "--n", "2", "--braid", "1",
                "--homs", name,
            )
            assert code == 1
            assert out == ""
            assert err == f"error: {reason}\n"

    def test_hom_budget_refusals_count_every_tuple(self, capsys):
        # The walk visits far fewer tuples than |H|^k, but the budget is
        # still tested on |H|^k: Z512 on three simplified generators, and S5
        # on five generators without relators.
        cases = (
            (3, "-1 2 2 -2 2 2 -1 2 -1 2", "Z512", "512^3 = 134217728"),
            (5, "1 -1", "S5", "120^5 = 24883200000"),
        )
        for n, letters, name, tuples in cases:
            for json_flag in ((), ("--json",)):
                code, out, err = run(
                    capsys,
                    "invariant", "--rep", "artin", "--n", str(n), "--braid", letters,
                    "--homs", name, *json_flag,
                )
                assert code == 1
                assert out == ""
                assert err == (
                    f"error: hom counting refused: {tuples} tuples exceeds the budget "
                    "of 10000000\n"
                )

    def test_non_builtin_group_name_exits_one(self, capsys):
        code, out, err = run(
            capsys,
            "invariant", "--rep", "artin", "--n", "2", "--braid", "1",
            "--homs", "no/such/table",
        )
        assert (code, out) == (1, "")
        assert err == "error: unknown group name 'no/such/table' (expected Zk, Sk or Dk)\n"

    def test_leading_zero_group_name_exits_one(self, capsys):
        # Z02 is not another spelling of Z2: its count would be reported
        # under a name that was not typed, and Z2,Z02 would be a repeat.
        # Z0, S0 and D0 are canonical and keep their own reasons (see
        # test_zero_order_builtin_group_reports_its_reason).
        for homs, bad in (("Z02", "Z02"), ("S03", "S03"), ("D004", "D004"), ("Z2,Z02", "Z02")):
            code, out, err = run(
                capsys,
                "invariant", "--rep", "artin", "--n", "2", "--braid", "1",
                "--homs", homs,
            )
            assert (code, out) == (1, "")
            assert err == f"error: unknown group name {bad!r} (expected Zk, Sk or Dk)\n"


class TestCheckStab:
    def test_artin(self, capsys):
        code, out, _ = run(capsys, "check-stab", "--rep", "artin")
        assert code == 0
        assert "S1 holds" in out
        assert "stabilization properties: satisfied" in out

    def test_trivial_family_violates(self, capsys):
        # B1: the core forces a = b but its inverse forces a = b^-1
        for rep in ("wada:T", "wada:B1"):
            code, out, _ = run(capsys, "check-stab", "--rep", rep)
            assert code == 0
            assert "stabilization properties: violated" in out

    def test_cores_spec_takes_strands_from_cores(self, capsys):
        for spec, cores in (("cores:abA,a", 1), ("cores:abA,a;abA,a;abA,a", 3)):
            code, out, err = run(capsys, "check-stab", "--rep", spec)
            assert code == 0, err
            assert out.count("S1 holds") == cores
            assert "stabilization properties: satisfied" in out

    def test_unresolved_s1_gives_unknown_core(self, capsys):
        # The last core has no successor, so the verdict is violated anyway.
        code, out, _ = run(capsys, "check-stab", "--rep", "cores:a,aaaB")
        assert code == 0
        assert out.splitlines()[0] == "core 1 (a,aaaB): S1 unknown"
        assert out.splitlines()[-1] == "stabilization properties: violated"

    def test_cores_spec_with_mismatched_n_exits_one(self, capsys):
        code, _, err = run(capsys, "check-stab", "--rep", "cores:abA,a", "--n", "3")
        assert code == 1
        assert "--n 3 does not match 1 cores" in err

    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_strand_count_below_one_exits_one(self, capsys, n):
        # Type B violates the properties; no verdict on fewer than one strand.
        for rep in ("wada:B1", "artin"):
            code, out, err = run(capsys, "check-stab", "--rep", rep, "--n", n)
            assert (code, out, err) == (1, "", "error: strand count must be >= 1\n")

    @pytest.mark.parametrize("rep", ["wada:B1", "wada:T", "artin"])
    def test_one_strand_has_no_core_to_check(self, capsys, rep):
        # No S1 test runs without a core, so no verdict is claimed; type B
        # violates the properties at every n >= 2.
        code, out, err = run(capsys, "check-stab", "--rep", rep, "--n", "1")
        assert (code, out, err) == (1, "", "error: a rep on 1 strand has no core to check\n")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "check-stab", "--rep", "wada:C1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["extendable"] is True
        assert data["stabilization_properties"] == "satisfied"

    def test_last_core_extensions_computed_once(self, capsys, monkeypatch):
        # _query_level is the one read of the catalog index.
        query_level = localrep._query_level
        calls = []

        def counted(word_len):
            calls.append(word_len)
            return query_level(word_len)

        monkeypatch.setattr(localrep, "_query_level", counted)
        code, out, _ = run(capsys, "check-stab", "--rep", "wada:C1")
        assert code == 0
        assert "S2 extensions: (aBa,a) via C1, (aba,A) via C2" in out
        assert len(calls) == 1

    def test_s1_checked_once_per_distinct_core(self, capsys, monkeypatch):
        check_S1, calls = cli.check_S1, []

        def counted(core):
            calls.append(str(core))
            return check_S1(core)

        monkeypatch.setattr(cli, "check_S1", counted)
        code, out, _ = run(capsys, "check-stab", "--rep", "artin", "--n", "1000")
        assert (code, calls) == (0, ["abA,a"])
        lines = out.splitlines()
        witness = "  core: relator aB forces a = b; inverse core: relator Ba forces a = b"
        assert lines[:-3] == [
            line for i in range(1, 1000) for line in (f"core {i} (abA,a): S1 holds", witness)
        ]
        assert lines[-1] == "stabilization properties: satisfied"
        calls.clear()
        code, out, _ = run(capsys, "check-stab", "--rep", "cores:B,a;b,A;B,a")
        assert (code, calls) == (0, ["B,a", "b,A"])
        collapse = "  the two sides collapse differently: core: relator {} forces a = {}; "
        collapse += "inverse core: relator {} forces a = {}"
        ba = collapse.format("aB", "b", "AB", "b^-1")
        ab = collapse.format("AB", "b^-1", "aB", "b")
        assert out == "\n".join([
            "core 1 (B,a): S1 fails", ba,
            "core 2 (b,A): S1 fails", ab,
            "core 3 (B,a): S1 fails", ba,
            "  S2 extensions: (B,a) via B1, (b,A) via B2",
            "extendable (S2): yes",
            "stabilization properties: violated",
            "",
        ])

    def test_json_repeats_each_core_entry(self, capsys):
        code, out, _ = run(capsys, "check-stab", "--rep", "cores:B,a;b,A;B,a", "--json")
        assert code == 0
        entries = json.loads(out)["cores"]
        assert [e["core"] for e in entries] == ["B,a", "b,A", "B,a"]
        assert entries[0] == entries[2] != entries[1]
        assert {e["s1"] for e in entries} == {"fails"}


class TestSizeRefusals:
    # A strand count or an A parameter whose rep or catalog words would pass
    # MAX_IMAGE_LETTERS is refused before any core or word is built.
    STRANDS = "error: strand count 1000000000 is over MAX_IMAGE_LETTERS (1000000)\n"
    WORDS = "error: family A1 at r=1000000000 has a word of 2000000001 letters, "
    WORDS += "over MAX_IMAGE_LETTERS (1000000)\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (("check-stab", "--rep", "artin", "--n", "1000000000"), STRANDS),
            (("act", "--rep", "artin", "--n", "1000000000", "--braid", "1"), STRANDS),
            (("catalog", "--family", "A1", "--r", "1000000000"), WORDS),
            (("gamma", "--family", "A", "--r", "1000000000", "--dot", "-"), WORDS),
            (("check-stab", "--rep", "wada:A1:r=1000000000"), WORDS),
        ],
    )
    def test_refused_at_once(self, capsys, argv, err):
        t0 = time.perf_counter()
        assert run(capsys, *argv) == (1, "", err)
        assert time.perf_counter() - t0 < 1


class TestEquationWordRefusals:
    # c(b, z) = b^1001 under a^1001 would have 1,002,001 letters, and T's
    # left side about 10^9 more: refused in the first, after 1000 images.
    TAU, KAPPA = "a" + "b" * 1000 + "," + "b" * 1001, "a" * 1001 + ",b"
    OVER = " letters, over MAX_IMAGE_LETTERS (1000000)\n"
    ERR = "error: a substituted word reached 1001000" + OVER

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--quad", f"{TAU},{KAPPA}"),
            ("act", "--rep", f"cores:{TAU};{KAPPA}", "--braid", "1"),
        ],
        ids=["verify", "act"],
    )
    def test_refused_at_once(self, capsys, argv):
        t0 = time.perf_counter()
        assert run(capsys, *argv) == (1, "", self.ERR)
        assert time.perf_counter() - t0 < 1

    # For the cores (a^10000, b) and (a, b), T's left side is a^(10^8): it is
    # refused after 101 images of a^10000, long before it takes gigabytes.
    LONG = "a" * 10_000 + ",b;a,b"
    ERR_LONG = "error: a substituted word reached 1010000" + OVER

    @pytest.mark.parametrize(
        "argv",
        [("verify", "--pair", LONG), ("act", "--rep", f"cores:{LONG}", "--braid", "1")],
        ids=["verify", "act"],
    )
    def test_long_core_refused_in_small_memory(self, argv):
        code, err, seconds, peak_mb = cli_in_child(*argv)
        assert (code, err) == (1, self.ERR_LONG)
        assert seconds < 1 and peak_mb < 100, (seconds, peak_mb)
