"""Exit codes, file outputs, and determinism of the command-line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stericzip import (AtomSelector, ContactPair, LJParams, parse_pdb, structure_energy_report, synthetic_template,
                       write_pdb)
from stericzip.benchmarks import DEFAULT_BENCH_BUDGET, DEFAULT_BENCH_DIMS, DEFAULT_BENCH_RUNS
from stericzip.cli import build_parser, main
from stericzip.template import DEFAULT_ANCHOR_SELECTORS, DEFAULT_FREE_SELECTORS, template_path

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def template_file(tmp_path):
    path = tmp_path / "template.pdb"
    path.write_text(template_path().read_text())
    return path


def run(*args):
    return main([str(a) for a in args])


class TestBuild:
    def test_build_succeeds_with_two_files(self, tmp_path, template_file):
        out = tmp_path / "m2.pdb"
        code = run("build", "--template", template_file, "--sequence", "GAAAAG",
                   "--out", out, "--seed", "42")
        assert code == 0
        assert out.exists()
        report = json.loads((tmp_path / "m2.pdb.report.json").read_text())
        assert report["success"] is True
        assert report["seed"] == 42
        assert report["chain_ids"] == list("ABCDEFGHIJKL")
        model = parse_pdb(out.read_text())
        assert model.chain_ids() == list("ABCDEFGHIJKL")

    def test_bad_alphabet_exits_2_without_files(self, tmp_path, template_file):
        out = tmp_path / "bad.pdb"
        code = run("build", "--template", template_file, "--sequence", "GAAAXG",
                   "--out", out, "--seed", "1")
        assert code == 2
        assert not out.exists()
        assert not (tmp_path / "bad.pdb.report.json").exists()

    def test_byte_identical_reruns(self, tmp_path, template_file):
        out_a = tmp_path / "a.pdb"
        out_b = tmp_path / "b.pdb"
        for out in (out_a, out_b):
            assert run("build", "--template", template_file, "--sequence", "AAAAGA",
                       "--out", out, "--seed", "7") == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        ra = json.loads((tmp_path / "a.pdb.report.json").read_text())
        rb = json.loads((tmp_path / "b.pdb.report.json").read_text())
        assert ra == rb

    def test_missing_template_is_domain_failure(self, tmp_path):
        code = run("build", "--template", tmp_path / "nope.pdb", "--sequence", "GAAAAG",
                   "--out", tmp_path / "x.pdb", "--seed", "1")
        assert code == 1

    @pytest.mark.parametrize(
        "text, located",
        [
            ('{"sequence": "GAAAAG",', "line 1 column"),
            ('{"placement_margin": 12.0}', "'placement_margin'"),
            ('{"optimizer": {"seed": 1, "max_evals": 10}}', "'max_evals'"),
            ('{"optimizer": {"cooling_factor": 0.9}}', "unknown key(s) 'cooling_factor' in optimizer"),
            ('{"optimizer": {"target_value": 0}}', "optimizer target_value and target_tolerance are set by"),
            ('{"lattice": {"intra_sheet_step": [0, 9.553, 0], "sheet2_transform": '
             '[1, 0, 0, 0, -1, 0, 0, 0, -1, NaN, 4.7765, 0]}}', "rigid transform must be finite"),
            ('{"full_sum": "false"}', "full_sum must be a bool, got 'false'"),
            ('{"model_name": 7}', "model_name must be a str, got 7"),
            ('{"lj": {"sigma": true}}', "LJParams requires finite sigma > 0, got True"),
        ],
    )
    def test_bad_spec_exits_1_without_files(self, tmp_path, template_file, capsys, text, located):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        out = tmp_path / "s.pdb"
        code = run("build", "--template", template_file, "--sequence", "GAAAAG",
                   "--out", out, "--seed", "1", "--spec", spec)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stericzip: error: {spec}: ")
        assert located in err
        assert not out.exists()
        assert not (tmp_path / "s.pdb.report.json").exists()

    @pytest.mark.parametrize("flag", ["--sigma", "--epsilon"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_potential_exits_2_without_files(
        self, tmp_path, template_file, capsys, flag, value
    ):
        out = tmp_path / "p.pdb"
        code = run("build", "--template", template_file, "--sequence", "GAAAAG",
                   "--out", out, "--seed", "1", flag, value)
        assert code == 2
        assert capsys.readouterr().err == (
            f"stericzip: usage error: LJParams requires finite {flag[2:]} > 0, got {float(value)!r}\n"
        )
        assert not out.exists()
        assert not (tmp_path / "p.pdb.report.json").exists()

    def test_non_finite_optimizer_knob_in_spec_exits_1(self, tmp_path, template_file, capsys):
        # json.loads accepts NaN; the optimizer config must not.
        spec = tmp_path / "spec.json"
        spec.write_text('{"optimizer": {"target_tolerance": NaN}}')
        out = tmp_path / "t.pdb"
        code = run("build", "--template", template_file, "--sequence", "GAAAAG",
                   "--out", out, "--seed", "1", "--spec", spec, "--full-sum")
        assert code == 1
        assert "target_tolerance must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "t.pdb.report.json").exists()

    def test_negative_seed_exits_2_without_files(self, tmp_path, template_file, capsys):
        out = tmp_path / "n.pdb"
        code = run("build", "--template", template_file, "--sequence", "GAAAAG",
                   "--out", out, "--seed", "-1")
        assert code == 2
        assert capsys.readouterr().err == "stericzip: usage error: --seed must be >= 0\n"
        assert not out.exists()
        assert not (tmp_path / "n.pdb.report.json").exists()

    def test_unwritable_report_exits_1_and_removes_the_model(self, tmp_path, template_file, capsys):
        out = tmp_path / "m.pdb"
        (tmp_path / "m.pdb.report.json").mkdir()
        code = run("build", "--template", template_file, "--sequence", "GAAAAG",
                   "--out", out, "--seed", "1")
        assert code == 1
        assert capsys.readouterr().err.startswith("stericzip: error: ")
        assert not out.exists()

    def test_write_cut_short_exits_1_and_removes_the_file(self, tmp_path, template_file):
        # RLIMIT_FSIZE, set in the child process only, stops the model write at 4,096 bytes.
        resource = pytest.importorskip("resource")
        code = (
            "import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, (4096, {resource.RLIM_INFINITY}))\n"
            "from stericzip.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code, "build", "--template", str(template_file),
                               "--sequence", "GAAAAG", "--out", "m.pdb", "--seed", "1"],
                              env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stderr == "stericzip: error: m.pdb: File too large\n"
        assert list(tmp_path.iterdir()) == [template_file]

    def test_seed_defaults_to_zero(self, tmp_path, template_file):
        # A build without --seed used to run, and echo, a random seed.
        out, zero = tmp_path / "m.pdb", tmp_path / "zero.pdb"
        assert run("build", "--template", template_file, "--sequence", "GAAAAG", "--out", out) == 0
        assert run("build", "--template", template_file, "--sequence", "GAAAAG", "--out", zero, "--seed", "0") == 0
        report = json.loads((tmp_path / "m.pdb.report.json").read_text())
        assert report["seed"] == report["optimizer"]["seed"] == 0
        assert report["model_name"] == "model"
        assert out.read_bytes() == zero.read_bytes()
        assert (tmp_path / "m.pdb.report.json").read_bytes() == (tmp_path / "zero.pdb.report.json").read_bytes()

    def test_spec_seed_and_model_name_hold_unless_a_flag_sets_them(self, tmp_path, template_file):
        # The --seed and --model-name defaults used to replace the spec's values.
        spec = tmp_path / "spec.json"
        spec.write_text('{"model_name": "zipper7", "optimizer": {"seed": 5}}')
        for flags, seed, name in (((), 5, "zipper7"), (("--seed", 9, "--model-name", "other"), 9, "other")):
            out = tmp_path / f"{name}.pdb"
            assert run("build", "--template", template_file, "--sequence", "GAAAAG", "--out", out,
                       "--spec", spec, *flags) == 0
            report = json.loads((tmp_path / f"{name}.pdb.report.json").read_text())
            assert report["seed"] == report["optimizer"]["seed"] == seed
            assert report["model_name"] == name


class TestMutate:
    def test_mutate_writes_renumbered_chain(self, tmp_path, template_file):
        out = tmp_path / "mut.pdb"
        assert run("mutate", "--in", template_file, "--chain", "A",
                   "--sequence", "GAAAAG", "--out", out) == 0
        s = parse_pdb(out.read_text())
        assert s.chain("A").res_names.tolist() == [
            "GLY", "ALA", "ALA", "ALA", "ALA", "GLY"
        ]

    def test_bad_sequence_exits_2(self, tmp_path, template_file):
        assert run("mutate", "--in", template_file, "--chain", "A",
                   "--sequence", "QQQQQQ", "--out", tmp_path / "x.pdb") == 2

    def test_missing_output_directory_exits_1(self, tmp_path, template_file, capsys):
        out = tmp_path / "nodir" / "x.pdb"
        assert run("mutate", "--in", template_file, "--chain", "A",
                   "--sequence", "GAAAAG", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("stericzip: error: ") and str(out) in err

    def test_unwritable_occupancy_exits_1_without_traceback(self, tmp_path, capsys):
        # An occupancy of 1e308 used to escape as decimal.InvalidOperation.
        lines = template_path().read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line.startswith("ATOM"))
        lines[first] = lines[first][:54] + " 1e308" + lines[first][60:]
        source = tmp_path / "huge.pdb"
        source.write_text("".join(lines))
        out = tmp_path / "x.pdb"
        assert run("mutate", "--in", source, "--chain", "A", "--sequence", "GAAAAG", "--out", out) == 1
        err = capsys.readouterr().err
        assert err == "stericzip: error: atom A.GLY1.N: occupancy 1e+308 does not fit in F6.2\n"
        assert not out.exists()


class TestTransform:
    def test_adds_screw_image(self, tmp_path, template_file):
        out = tmp_path / "g.pdb"
        code = run("transform", "--in", template_file, "--chain", "A", "--new-chain", "G",
                   "--matrix", "1", "0", "0", "0", "-1", "0", "0", "0", "-1",
                   "--translate", "9.075", "4.7765", "0", "--out", out)
        assert code == 0
        s = parse_pdb(out.read_text())
        assert s.chain_ids() == ["A", "B", "G"]

    def test_unwritable_coordinates_exit_1_without_file(self, tmp_path, template_file, capsys):
        out = tmp_path / "far.pdb"
        code = run("transform", "--in", template_file, "--chain", "A", "--new-chain", "G",
                   "--matrix", "1", "0", "0", "0", "1", "0", "0", "0", "1",
                   "--translate", "20000", "0", "0", "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("stericzip: error: atom G.")
        assert err.endswith(" does not fit in F8.3\n") and ": coordinate 2000" in err
        assert not out.exists()

    @pytest.mark.parametrize("matrix, message", [
        (["nan", 0, 0, 0, 1, 0, 0, 0, 1], "rigid transform must be finite"),
        ([2, 0, 0, 0, 1, 0, 0, 0, 1], "rotation part is not orthogonal"),
    ])
    def test_non_finite_or_non_orthogonal_matrix_exits_2(self, tmp_path, template_file, capsys, matrix, message):
        out = tmp_path / "bad.pdb"
        code = run("transform", "--in", template_file, "--chain", "A", "--new-chain", "G",
                   "--matrix", *matrix, "--translate", "0", "0", "0", "--out", out)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unencodable_chain_id_exits_1_without_file(self, tmp_path, template_file, capsys):
        # A non-UTF-8 argv byte arrives as a lone surrogate, which the PDB text cannot be written in.
        out = tmp_path / "x.pdb"
        code = run("transform", "--in", template_file, "--chain", "A", "--new-chain", "\udcff",
                   "--matrix", 1, 0, 0, 0, 1, 0, 0, 0, 1, "--translate", 0, 0, 0, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stericzip: error: {out}: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [template_file]

    def test_missing_chain_exits_1(self, tmp_path, template_file):
        code = run("transform", "--in", template_file, "--chain", "Q", "--new-chain", "G",
                   "--matrix", "1", "0", "0", "0", "1", "0", "0", "0", "1",
                   "--translate", "0", "0", "0", "--out", tmp_path / "x.pdb")
        assert code == 1


class TestEnergy:
    def test_report_on_built_model(self, tmp_path, template_file):
        model = tmp_path / "m.pdb"
        assert run("build", "--template", template_file, "--sequence", "GAAAAG",
                   "--out", model, "--seed", "3") == 0
        report_path = tmp_path / "energy.json"
        assert run("energy", "--in", model, "--sigma", "5.82", "--report", report_path) == 0
        report = json.loads(report_path.read_text())
        assert report["hbond_count"] > 0
        assert report["clash_count"] == 0
        assert len(report["contacts"]) == 2

    def test_report_matches_the_library_report(self, tmp_path, template_file):
        model = tmp_path / "m.pdb"
        assert run("build", "--template", template_file, "--sequence", "GAAAAG", "--out", model, "--seed", "0") == 0
        report_path = tmp_path / "energy.json"
        assert run("energy", "--in", model, "--sigma", "5.82", "--report", report_path) == 0
        report = json.loads(report_path.read_text())
        contacts = [ContactPair(AtomSelector.parse(a), AtomSelector.parse(b))
                    for a, b in zip(DEFAULT_ANCHOR_SELECTORS, DEFAULT_FREE_SELECTORS)]
        library = structure_energy_report(parse_pdb(model.read_text()), lj=LJParams(1.0, 5.82), contacts=contacts)
        assert len(report["contacts"]) == 2
        assert report["contacts"] == library["contacts"]
        assert report == dict(json.loads(json.dumps(library)), skipped_contacts=[])

    def test_default_sigma_is_the_builds(self, tmp_path, template_file):
        # The default sigma used to be 4.0 A, which scored each contact of a
        # fresh build at -0.1997 with an optimal distance of 4.49 A.
        model, report_path = tmp_path / "m.pdb", tmp_path / "energy.json"
        assert run("build", "--template", template_file, "--sequence", "GAAAAG", "--out", model) == 0
        assert run("energy", "--in", model, "--report", report_path) == 0
        built = json.loads((tmp_path / "m.pdb.report.json").read_text())
        report = json.loads(report_path.read_text())
        assert report["parameters"]["sigma"] == built["parameters"]["sigma"]
        assert len(report["contacts"]) == len(built["contacts"]) == 2
        for row, contact in zip(report["contacts"], built["contacts"]):
            assert row["energy"] == pytest.approx(-1.0, abs=5e-5)
            assert row["optimal_distance"] == contact["optimal_distance"]

    def test_contacts_are_the_build_reports(self, tmp_path, template_file):
        # Both reports come from structure_energy_report; the energy report
        # reads the written file, whose F8.3 coordinates move each atom by
        # at most sqrt(3) * 5e-4 A, so a distance by at most sqrt(3) * 1e-3 A.
        model, report_path = tmp_path / "m.pdb", tmp_path / "energy.json"
        assert run("build", "--template", template_file, "--sequence", "GAAAAG", "--out", model) == 0
        assert run("energy", "--in", model, "--report", report_path) == 0
        built = json.loads((tmp_path / "m.pdb.report.json").read_text())["contacts"]
        report = json.loads(report_path.read_text())
        assert report["skipped_contacts"] == []
        assert [sorted(row) for row in report["contacts"]] == [sorted(row) for row in built]
        for row, contact in zip(report["contacts"], built, strict=True):
            assert (row["first"], row["second"]) == (contact["first"], contact["second"])
            assert row["optimal_distance"] == contact["optimal_distance"]
            assert row["distance"] == pytest.approx(contact["distance"], abs=3**0.5 * 1e-3)
            assert row["energy"] == pytest.approx(contact["energy"], abs=5e-5)

    def test_absent_default_contacts_are_named(self, tmp_path, template_file):
        # The packaged template has no chains G and H; both default contacts
        # used to be dropped without a word.
        report_path = tmp_path / "energy.json"
        assert run("energy", "--in", template_file, "--report", report_path) == 0
        report = json.loads(report_path.read_text())
        assert report["skipped_contacts"] == ["A.ALA3.CB-G.ALA4.CB", "B.ALA4.CB-H.ALA3.CB"]
        assert report["contacts"] == [] and report["total_contact_energy"] == 0.0

    def test_empty_structure(self, tmp_path):
        empty = tmp_path / "empty.pdb"
        empty.write_text("END\n")
        report_path = tmp_path / "energy.json"
        assert run("energy", "--in", empty, "--report", report_path) == 0
        report = json.loads(report_path.read_text())
        assert report["hbond_count"] == 0
        assert report["clashes"] == []
        assert report["total_contact_energy"] == 0.0

    def test_missing_report_directory_exits_1(self, tmp_path, template_file, capsys):
        report_path = tmp_path / "nodir" / "energy.json"
        assert run("energy", "--in", template_file, "--report", report_path) == 1
        assert str(report_path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--sigma", "nan"), ("--sigma", "-1"), ("--epsilon", "inf"), ("--epsilon", "0"),
         ("--hb-c", "inf"), ("--hb-c", "nan"), ("--hb-d", "0"), ("--hb-d", "-2")],
    )
    def test_bad_potential_flag_exits_2_before_reading_input(self, tmp_path, capsys, flag, value):
        report_path = tmp_path / "energy.json"
        code = run("energy", "--in", tmp_path / "absent.pdb", flag, value, "--report", report_path)
        assert code == 2
        kind = "HBParams" if flag.startswith("--hb-") else "LJParams"
        assert capsys.readouterr().err == (
            f"stericzip: usage error: {kind} requires finite {flag.split('-')[-1]} > 0, got {float(value)!r}\n"
        )
        assert not report_path.exists()

    def test_default_hbond_rows_match_library_report(self, tmp_path, template_file):
        report_path = tmp_path / "energy.json"
        assert run("energy", "--in", template_file, "--report", report_path) == 0
        cli_rows = json.loads(report_path.read_text())["hbonds"]
        library = structure_energy_report(parse_pdb(template_file.read_text()))
        assert cli_rows
        assert cli_rows == json.loads(json.dumps(library["hbonds"]))

    def test_truncated_line_names_line(self, tmp_path, capsys):
        broken = tmp_path / "broken.pdb"
        text = write_pdb(synthetic_template()).splitlines()
        text[3] = text[3][:40]
        broken.write_text("\n".join(text) + "\n")
        assert run("energy", "--in", broken, "--report", tmp_path / "x.json") == 1
        assert "line 4" in capsys.readouterr().err


class TestNotUtf8:
    """A file with one byte that is not UTF-8 fails with one located line and writes nothing."""

    @pytest.fixture()
    def latin1_template(self, tmp_path):
        path = tmp_path / "latin1.pdb"
        path.write_bytes(b"REMARK caf\xe9\n" + template_path().read_bytes())
        return path

    @pytest.mark.parametrize("command", ["build", "mutate", "transform", "energy"])
    def test_input_exits_1_without_files(self, tmp_path, latin1_template, capsys, command):
        out = tmp_path / "out.pdb"
        args = {
            "build": ("--template", latin1_template, "--sequence", "GAAAAG", "--out", out, "--seed", 1),
            "mutate": ("--in", latin1_template, "--chain", "A", "--sequence", "GAAAAG", "--out", out),
            "transform": ("--in", latin1_template, "--chain", "A", "--new-chain", "G",
                          "--matrix", 1, 0, 0, 0, -1, 0, 0, 0, -1, "--translate", 0, 0, 0, "--out", out),
            "energy": ("--in", latin1_template, "--report", out),
        }[command]
        assert run(command, *args) == 1
        assert capsys.readouterr().err == (
            "stericzip: error: line 1: byte 0xe9 is not UTF-8 text (invalid continuation byte)\n"
        )
        assert list(tmp_path.iterdir()) == [latin1_template]

    def test_spec_exits_1_naming_the_spec(self, tmp_path, template_file, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'{"model_name": "caf\xe9"}')
        out = tmp_path / "s.pdb"
        assert run("build", "--template", template_file, "--sequence", "GAAAAG", "--out", out, "--seed", 1,
                   "--spec", spec) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stericzip: error: {spec}: ") and "can't decode byte 0xe9" in err
        assert err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == sorted([template_file, spec])


class TestBench:
    def test_unknown_suite_exits_2(self, tmp_path):
        assert run("bench", "--suite", "fancy", "--report", tmp_path / "b.json") == 2

    def test_zero_runs_exits_2(self, tmp_path):
        assert run("bench", "--suite", "classic", "--runs", "0",
                   "--report", tmp_path / "b.json") == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--seed", "-1", "--seed must be >= 0"), ("--budget", "10", "--budget must cover the population of 50")],
    )
    def test_out_of_range_flag_exits_2_without_report(self, tmp_path, capsys, flag, value, message):
        report_path = tmp_path / "b.json"
        code = run("bench", "--dims", "2", "--runs", "1", flag, value, "--report", report_path)
        assert code == 2
        assert capsys.readouterr().err == f"stericzip: usage error: {message}\n"
        assert not report_path.exists()

    def test_missing_report_directory_exits_1(self, tmp_path, capsys):
        report_path = tmp_path / "nodir" / "b.json"
        assert run("bench", "--suite", "classic", "--dims", "2", "--runs", "1",
                   "--seed", "5", "--budget", "2000", "--report", report_path) == 1
        assert str(report_path) in capsys.readouterr().err

    def test_defaults_come_from_the_harness(self):
        args = build_parser().parse_args(["bench", "--report", "b.json"])
        assert (args.budget, args.runs, args.seed) == (DEFAULT_BENCH_BUDGET, DEFAULT_BENCH_RUNS, 0)
        assert tuple(int(d) for d in args.dims.split(",")) == DEFAULT_BENCH_DIMS

    def test_seed_defaults_to_zero(self, tmp_path):
        # bench without --seed used to run a random seed.
        paths = tmp_path / "a.json", tmp_path / "zero.json"
        for path, flags in zip(paths, ((), ("--seed", "0"))):
            assert run("bench", "--dims", "2", "--runs", "2", "--budget", "2000", *flags, "--report", path) in (0, 1)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_deterministic_report_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run("bench", "--suite", "classic", "--dims", "2", "--runs", "2",
                "--seed", "5", "--budget", "15000", "--report", path)
        assert a.read_bytes() == b.read_bytes()
