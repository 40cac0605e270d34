import argparse
import hashlib
import json
import re
import subprocess
import sys

import pytest

from grasscat import __version__
from grasscat.census import run_census
from grasscat.cli import main
from grasscat.errors import TruncationUnstable


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestBasicCommands:
    def test_rim(self, capsys):
        code, out = run_cli(["rim", "145@(3,8)"], capsys)
        assert code == 0
        assert "peaks: [3, 8]" in out
        assert "syzygy rim: [2, 3, 6]" in out

    def test_ext_text(self, capsys):
        code, out = run_cli(["ext", "135@(3,6)", "246@(3,6)"], capsys)
        assert code == 0
        assert "C ⊕ C" in out
        assert "[1, 1]" in out

    def test_ext_json_byte_stable(self, capsys):
        _, first = run_cli(["--json", "ext", "135@(3,6)", "246@(3,6)"], capsys)
        _, second = run_cli(["--json", "ext", "135@(3,6)", "246@(3,6)"], capsys)
        assert first == second
        payload = json.loads(first)
        assert payload["exponents"] == [1, 1]

    def test_module(self, capsys):
        code, out = run_cli(["module", "246|135@(3,9)"], capsys)
        assert code == 0
        assert "relations ok" in out
        assert "(real)" in out

    def test_hom(self, capsys):
        code, out = run_cli(["hom", "135@(3,6)", "246@(3,6)"], capsys)
        assert code == 0
        assert "rank 1" in out

    def test_syzygy(self, capsys):
        code, out = run_cli(["syzygy", "145@(3,9)"], capsys)
        assert code == 0
        assert "236" in out

    def test_rigid(self, capsys):
        code, out = run_cli(["rigid", "1357|2468@(4,8)"], capsys)
        assert code == 0
        assert "rigid = False" in out

    def test_ar_seq(self, capsys):
        code, out = run_cli(["ar-seq", "126@(3,9)"], capsys)
        assert code == 0
        assert "137|268" in out and "378" in out

    def test_orbit(self, capsys):
        code, out = run_cli(["orbit", "126@(3,9)"], capsys)
        assert code == 0
        assert "period 3" in out
        assert "126 -> 378 -> 459" in out

    def test_orbit_dot(self, capsys):
        code, out = run_cli(["orbit", "126@(3,9)", "--format", "dot"], capsys)
        assert code == 0
        assert out.startswith("digraph tube")

    def test_orbit_tikz(self, capsys):
        code, out = run_cli(["orbit", "147@(3,9)", "--format", "tikz"], capsys)
        assert code == 0
        assert "tikzpicture" in out

    def test_only_drawn_orbits_load_diagrams(self, capsys, monkeypatch):
        monkeypatch.delitem(sys.modules, "grasscat.diagrams", raising=False)
        assert run_cli(["orbit", "126@(3,9)"], capsys)[0] == 0
        assert run_cli(["--json", "orbit", "126@(3,9)"], capsys)[0] == 0
        assert "grasscat.diagrams" not in sys.modules
        assert run_cli(["orbit", "126@(3,9)", "--format", "dot"], capsys)[0] == 0
        assert "grasscat.diagrams" in sys.modules

    def test_roots(self, capsys):
        code, out = run_cli(["roots", "3", "6"], capsys)
        assert code == 0
        assert ": 1" in out

    def test_roots_json(self, capsys):
        code, out = run_cli(["--json", "roots", "4", "8"], capsys)
        payload = json.loads(out)
        assert payload["count"] == 56
        assert payload["expected_rigid_rank2"] == 112


class TestDiagram:
    def test_svg_figure_geometry(self, capsys):
        code, out = run_cli(["diagram", "145@(3,8)", "--format", "svg"], capsys)
        assert code == 0
        assert out.startswith("<svg")
        assert "polyline" in out

    def test_tikz(self, capsys):
        code, out = run_cli(["diagram", "145@(3,8)", "--format", "tikz"], capsys)
        assert code == 0
        assert "ultra thick" in out

    def test_write_to_out_dir(self, capsys, tmp_path):
        code, out = run_cli(["--out", str(tmp_path), "diagram", "246|135@(3,9)",
                             "--format", "svg", "--write"], capsys)
        assert code == 0
        files = list(tmp_path.glob("*.svg"))
        assert len(files) == 1

    def test_diagram_json_roundtrip(self, capsys):
        from grasscat.modules import lattice_diagram_data, parse_profile
        data = lattice_diagram_data(parse_profile("145@(3,8)"))
        blob = json.dumps(data, sort_keys=True)
        assert json.loads(blob) == data


class TestCensusCommand:
    def test_census_36_full_table(self, capsys):
        code, out = run_cli(["census", "3", "6"], capsys)
        assert code == 0
        assert "rank1: 20, rank2 rigid: 2" in out

    def test_census_sample(self, capsys):
        code, out = run_cli(["census", "3", "7", "--sample", "0.5"], capsys)
        assert code == 0
        assert "[sampled]" in out
        # the table reports the sampled verdicts, which a sampled run does not group
        rep = run_census(3, 7, sample=0.5)
        rigid = sum(rep.candidate_verdicts.values())
        assert rigid > 0
        assert f"rigid among {rep.candidates_tested} sampled candidates: {rigid}" in out
        # the JSON document carries the same verdicts, as [a, b, ok]
        code, out = run_cli(["--json", "census", "3", "7", "--sample", "0.5"], capsys)
        doc = json.loads(out)
        assert code == 0 and len(doc["candidate_verdicts"]) == rep.candidates_tested
        assert sum(ok for _, _, ok in doc["candidate_verdicts"]) == rigid
        assert main(["census", "3", "7", "--sample", "2"]) == 2
        assert "error: sample must be a fraction in (0, 1]" in capsys.readouterr().err

    def test_refresh_has_no_effect(self, capsys):
        for argv in (["census", "3", "7"], ["--json", "census", "3", "7"],
                     ["--json", "census", "3", "7", "--sample", "0.5"]):
            assert run_cli(argv, capsys) == run_cli(argv + ["--refresh"], capsys)

    def test_a_census_without_orbits_prints_null_orbit_ids(self, capsys):
        doc = json.loads(run_cli(["--json", "census", "3", "6"], capsys)[1])
        assert all(e["orbit_id"] is None for e in doc["rank2_rigid"])


def _tampered_census_file(out_dir, k, n, drop):
    """Write census-K-N.json into out_dir as a census cache was once written:
    the --json document and every candidate's verdict, less ``drop`` classes
    and with its counts lowered to match.  The file's bytes are returned."""
    rep = run_census(k, n)
    doc = rep.to_json_dict()
    doc["candidate_verdicts"] = [[list(a.elements), list(b.elements), ok]
                                 for (a, b), ok in rep.candidate_verdicts.items()]
    dropped, doc["rank2_rigid"] = doc["rank2_rigid"][:drop], doc["rank2_rigid"][drop:]
    doc["counts"]["rank2_rigid"] -= drop
    for e in dropped:
        doc["counts"][e["classification"]] -= 1
    path = out_dir / f"census-{k}-{n}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return path.read_bytes()


class TestOutIsNotRead:
    """No file in --out can change a census or tube answer or its exit
    code, and census writes nothing there."""

    def test_census_writes_nothing(self, capsys, tmp_path):
        assert run_cli(["--out", str(tmp_path), "census", "3", "6"], capsys)[0] == 0
        assert run_cli(["--json", "--out", str(tmp_path / "new"), "census", "3", "6",
                        "--orbits"], capsys)[0] == 0
        assert list(tmp_path.iterdir()) == []

    def test_a_tampered_census_file_is_not_read(self, capsys, tmp_path):
        written = _tampered_census_file(tmp_path, 3, 8, drop=3)
        code, out = run_cli(["--out", str(tmp_path), "census", "3", "8"], capsys)
        assert code == 0
        assert "rank1: 56, rank2 rigid: 56 (56 real + 0 imaginary)" in out
        assert "real_root_count_formula=True" in out
        code, out = run_cli(["--json", "--out", str(tmp_path), "census", "3", "8"], capsys)
        assert code == 0 and json.loads(out)["counts"]["rank2_rigid"] == 56
        assert [p.name for p in tmp_path.iterdir()] == ["census-3-8.json"]
        assert (tmp_path / "census-3-8.json").read_bytes() == written

    def test_a_tampered_census_file_keeps_the_fixture_exit(self, capsys, tmp_path,
                                                            monkeypatch):
        from grasscat import census
        _tampered_census_file(tmp_path, 3, 8, drop=3)
        wrong = {**census.CENSUS_TABLE[(3, 8)], "rank2_rigid": 53}
        monkeypatch.setitem(census.CENSUS_TABLE, (3, 8), wrong)
        code, out = run_cli(["--out", str(tmp_path), "census", "3", "8"], capsys)
        assert code == 3
        assert "  FIXTURE DIFFS: rank2_rigid: expected 53, computed 56" in out.splitlines()

    def test_tubes_prints_the_same_bytes_beside_a_tampered_census_file(self, capsys,
                                                                      tmp_path):
        # (3,7), not (3,6): both (3,6) classes lie in orbits of rims, so a file
        # short of classes would change no byte there even if it were read
        calls = [[*flags, "--out", str(tmp_path), "tubes", "3", "7"]
                 for flags in ([], ["--json"])]
        clean = [run_cli(argv, capsys) for argv in calls]
        assert all(code == 0 for code, _ in clean)
        _tampered_census_file(tmp_path, 3, 7, drop=3)
        assert [run_cli(argv, capsys) for argv in calls] == clean


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "grasscat.cli", "frobnicate"],
            capture_output=True)
        assert result.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["census", "3", "6", "--jobs", "2"],
        ["--format", "json", "rim", "145@(3,8)"],
        ["--format", "dot", "diagram", "145@(3,8)"],
        ["orbit", "126@(3,9)", "--format", "svg"],
        ["roots", "4", "8", "--degree", "2"],
    ])
    def test_removed_options_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--json", "diagram", "145@(3,8)"],
        ["--json", "diagram", "145@(3,8)", "--format", "tikz", "--write"],
        ["--json", "orbit", "126@(3,9)", "--format", "dot"],
        ["--json", "orbit", "126@(3,9)", "--format", "tikz"],
        ["--verbose", "ext", "135@(3,6)", "246@(3,6)"],
        ["--verbose", "orbit", "126@(3,9)"],
        ["--verbose", "census", "3", "6"],
        ["--verbose", "diagram", "145@(3,8)"],
    ])
    def test_a_global_flag_the_command_ignores_exits_2(self, argv, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path)] + argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and list(tmp_path.iterdir()) == []
        assert f"grasscat {argv[1]}: error: {argv[0]} " in err

    @pytest.mark.parametrize("command, argv", [
        ("hom", ["--verbose", "hom", "135@(3,6)", "246@(3,6)"]),   # hom reads it with --json
        ("roots", ["--json", "--verbose", "roots", "3", "6"]),     # roots without --json
    ])
    def test_verbose_in_the_mode_that_ignores_it_exits_2(self, command, argv, capsys,
                                                         tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path)] + argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and list(tmp_path.iterdir()) == []
        assert f"grasscat {command}: error: --verbose " in err

    @pytest.mark.parametrize("argv", [
        ["--json", "orbit", "126@(3,9)", "--format", "table"],
        ["--verbose", "roots", "3", "6"],
        ["--json", "--verbose", "hom", "135@(3,6)", "246@(3,6)"],
    ])
    def test_global_flags_the_command_reads_are_accepted(self, argv, capsys):
        assert main(argv) == 0

    @pytest.mark.parametrize("argv", [
        [], ["frobnicate"], ["census", "3"], ["census", "3", "6", "--json"],
    ])
    def test_malformed_calls_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--orbits"])
    def test_sampled_census_refuses_full_census_flags(self, flag, capsys):
        assert main(["--json", "census", "3", "7", "--sample", "0.5", flag]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"error: {flag} needs a full census" in err

    def test_bad_rim_token(self, capsys):
        code = main(["rim", "145"])
        assert code == 2

    def test_env_truncation(self, capsys, monkeypatch):
        monkeypatch.setenv("GRASSCAT_TRUNCATION", "20")
        code, out = run_cli(["ext", "135@(3,6)", "246@(3,6)"], capsys)
        assert code == 0
        assert "[1, 1]" in out
        # the variable is read: 4 is below n = 6, and --trunc overrides it
        monkeypatch.setenv("GRASSCAT_TRUNCATION", "4")
        assert main(["ext", "135@(3,6)", "246@(3,6)"]) == 2
        code, out = run_cli(["--trunc", "12", "ext", "135@(3,6)", "246@(3,6)"], capsys)
        assert code == 0
        assert "[1, 1]" in out

    def test_trunc_flag_below_n_rejected(self, capsys):
        code = main(["--trunc", "4", "ext", "135@(3,6)", "246@(3,6)"])
        assert code == 2

    def test_trunc_one_below_n_reports_an_error(self, capsys):
        code = main(["--trunc", "5", "ext", "135@(3,6)", "246@(3,6)"])
        err = capsys.readouterr().err
        assert code == 2
        assert any(line.startswith("error:") for line in err.splitlines())

    @pytest.mark.parametrize("command", ["orbit", "syzygy"])
    def test_profile_with_a_projective_summand_is_an_error(self, command, capsys):
        code = main([command, "136|245@(3,7)"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "projective summand" in err

    def test_profiles_of_low_interlacing_degree_keep_their_orbits(self, capsys):
        code, out = run_cli(["orbit", "135|135@(3,6)"], capsys)        # degree 0
        assert code == 0 and "period 4" in out
        code, out = run_cli(["syzygy", "146|235@(3,6)"], capsys)       # degree 2
        assert code == 0 and "= 246 (rank 1)" in out
        code, out = run_cli(["orbit", "1247|3568@(4,8)"], capsys)      # not rigid
        assert code == 0 and "period 4" in out


class TestExitCodes:
    """The exit codes 3 and 4 that README promises, which no paper ambient
    reaches at --trunc n: the failure is brought in by a patched callee."""

    def test_truncation_instability_exits_4(self, capsys, monkeypatch):
        from grasscat import homology

        def unstable(*args):
            raise TruncationUnstable("Hom condition: precision short by 1")
        monkeypatch.setattr(homology, "ext1", unstable)
        assert main(["--json", "ext", "135@(3,6)", "246@(3,6)"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "truncation instability: Hom condition: precision short by 1\n"

    def test_census_fixture_diff_exits_3(self, capsys, monkeypatch, tmp_path):
        from grasscat import census
        wrong = {**census.CENSUS_TABLE[(3, 6)], "rank2_rigid": 3}
        monkeypatch.setitem(census.CENSUS_TABLE, (3, 6), wrong)
        code, out = run_cli(["--out", str(tmp_path), "census", "3", "6"], capsys)
        assert code == 3
        assert "rank1: 20, rank2 rigid: 2" in out
        assert "  FIXTURE DIFFS: rank2_rigid: expected 3, computed 2" in out.splitlines()
        code, out = run_cli(["--json", "--out", str(tmp_path), "census", "3", "6"], capsys)
        assert code == 3
        assert json.loads(out)["fixture_diffs"] == ["rank2_rigid: expected 3, computed 2"]


# every command with its one-line help and what its own -h must show
COMMAND_HELP = {
    "rim": ("peaks, slopes and decompositions of a rim", ["rim", "145@(3,8)"]),
    "module": ("build a module and validate its relations", ["profile"]),
    "hom": ("Hom space between two modules", ["source", "target"]),
    "ext": ("first extension group between two modules", ["source", "target"]),
    "syzygy": ("syzygy of a module, identified", ["profile"]),
    "rigid": ("rigidity of a module", ["profile"]),
    "ar-seq": ("AR sequence at an almost consecutive rim", ["rim"]),
    "orbit": ("syzygy orbit of a rim or profile", ["profile", "--format"]),
    "tubes": ("tube census over one ambient", ["k", "n"]),
    "roots": ("degree-2 real root enumeration", ["k", "n"]),
    "census": ("rigid rank-2 census", ["k", "n", "--sample", "--refresh", "--orbits"]),
    "diagram": ("lattice diagram emitter", ["profile", "--format", "--write"]),
}


class TestParsers:
    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        for command, (line, _) in COMMAND_HELP.items():
            assert re.search(rf"^ +{re.escape(command)} +{re.escape(line)}$", out, re.M)
        for option in ("--version", "--json", "--trunc", "--out", "--verbose"):
            assert option in out
        assert "--format" not in out

    @pytest.mark.parametrize("command", sorted(COMMAND_HELP))
    def test_command_help_shows_its_own_arguments(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert out.startswith(f"usage: grasscat {command} ")
        for argument in COMMAND_HELP[command][1]:
            assert argument in out
        assert "--json" not in out and "--trunc" not in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_a_call_builds_only_its_own_parser(self, capsys, monkeypatch):
        built = []
        original = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["--json", "rim", "145@(3,8)"]) == 0
        assert len(built) <= 2, built


class TestTubesCommand:
    def test_tubes_nontame_writes_json(self, capsys, tmp_path):
        code, out = run_cli(["--out", str(tmp_path), "tubes", "3", "6"], capsys)
        assert code == 0
        assert "non-tame: orbits only" in out
        path = tmp_path / "tubes-3-6.json"
        assert path.exists()
        blob = json.loads(path.read_text())
        assert blob["banner"] == "non-tame: orbits only"
        assert all(4 % int(p) == 0 for p in blob["periods"])


# sha256 of the --json output of each command, run with a fresh --out
# directory.  Refactors must leave every byte unchanged; a deliberate output
# change re-pins these and says why in CHANGES.md.
PINNED_JSON = {
    "census-3-7": (["census", "3", "7"],
                   "da5126a907858d0bbab5bc6d50bd7ce037a75580adb48e341728b13de87ecfbb"),
    "census-3-7-orbits": (["census", "3", "7", "--orbits"],
                          "b48ae0cf8d107683cd9a8fa593874967b6ddb6ad5354bd774249e3e5588f359d"),
    "orbit-3-6": (["orbit", "135|246@(3,6)"],
                  "6dbb709a15cd5dadd7bed3509a95f71ad892b68807b378913f8903b202eb6246"),
    "orbit-4-8": (["orbit", "1246|3578@(4,8)"],
                  "36ee805764a48da08b796010946c827c6613b6c62b40b6b13115feaca72f370e"),
    "ar-seq-3-9": (["ar-seq", "126@(3,9)"],
                   "0f163785dff28018c15ce1c1d664a76f531b6e74b796aa25440522a3633951b8"),
    "rigid-4-8": (["rigid", "1357|2468@(4,8)"],
                  "932ff278717c184012a282e370ad51cb43531745eec74db82cca58c4a6dbb228"),
    "hom-verbose-3-6": (["--verbose", "hom", "135|246@(3,6)", "135|246@(3,6)"],
                        "53a716996d7ef8d2c2988584e4813c145fc21f02e12a32fde9530a65f8ea3651"),
    "ext-3-6": (["ext", "135@(3,6)", "246@(3,6)"],
                "00540a20c7d0f7c81368f739ab6c9fc76997fd021d4f82c0d6e88621d4b4c972"),
}


class TestPinnedJson:
    @pytest.mark.parametrize("name", sorted(PINNED_JSON))
    def test_output_digest_is_unchanged(self, name, capsys, tmp_path):
        argv, digest = PINNED_JSON[name]
        code, out = run_cli(["--json", "--out", str(tmp_path)] + argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out
