import contextlib
import dataclasses
import errno
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from asi import cli, harness, numeric
from asi.adablending import BlendConfig
from asi.cli import main, parse_config
from asi.errors import ConfigError
from asi.harness import ExperimentConfig, configure
from asi.tensorio import load_tensor

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

# One non-default value per config key.
SAMPLE_SETTINGS = {
    "seed": "9",
    "heads": "12",
    "head_dim": "4",
    "positions": "3",
    "tokens": "2",
    "timesteps": "3",
    "layers_per_step": "2",
    "perturbation": "0.5",
    "apply_asi": "off",
    "dump_dir": "elsewhere",
    "n": "3",
    "alpha": "0.5",
    "eps": "0.001",
}


def digests(out: Path) -> dict[str, str]:
    """The sha256 of every file under out, by its path relative to out."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def exit_code(argv: list[str]) -> int:
    """main(argv)'s exit code, also where it exits (a malformed command line, --help)."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def partials(root: Path) -> list[Path]:
    """Every temporary the artifact writer would leave under root."""
    return sorted(root.rglob("*.partial"))


class TestParseConfig:
    def test_no_file_gives_defaults(self):
        cfg = parse_config(None)
        assert cfg.seed == 0
        assert cfg.timesteps == 50
        assert cfg.blend.n == 6
        assert cfg.blend.alpha == 0.7
        assert cfg.blend.eps == 1e-5

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert parse_config(path) == parse_config(None)

    def test_file_values_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# reference run\n"
            "seed = 9\n"
            "heads = 4\n"
            "n = 2   # keep below heads\n"
            "\n"
            "alpha = 0.5\n"
            "apply_asi = false\n"
            "eps = 0.001\n"
        )
        cfg = parse_config(path)
        assert cfg.seed == 9
        assert cfg.heads == 4
        assert cfg.blend.n == 2
        assert cfg.blend.alpha == 0.5
        assert cfg.apply_asi is False
        assert cfg.blend.eps == 0.001

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 9\n")
        cfg = parse_config(path, ["seed=10"])
        assert cfg.seed == 10

    def test_overrides_apply_left_to_right(self):
        cfg = parse_config(None, ["n=2", "n=3"])
        assert cfg.blend.n == 3

    def test_boundary_n_zero_accepted(self):
        assert parse_config(None, ["n=0"]).blend.n == 0

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(None, ["bogus=1"])

    def test_invalid_value_named_in_error(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(None, ["alpha=-1"])
        with pytest.raises(ConfigError, match="seed"):
            parse_config(None, ["seed=abc"])

    def test_set_value_is_literal(self):
        assert parse_config(None, ["dump_dir=out#1"]).dump_dir == Path("out#1")
        assert parse_config(None, ["dump_dir=a=b"]).dump_dir == Path("a=b")
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(None, ["alpha=0.5#x"])

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_config(tmp_path / "nope.cfg")

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_n_above_heads_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(None, ["heads=4"])  # default n=6 no longer fits

    def test_sample_settings_cover_every_config_key(self):
        keys = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"blend"}
        keys |= {f.name for f in dataclasses.fields(BlendConfig)}
        assert set(SAMPLE_SETTINGS) == keys

    @pytest.mark.parametrize("key, value", sorted(SAMPLE_SETTINGS.items()))
    def test_set_parses_like_configure(self, key, value):
        cfg = parse_config(None, [f"{key}={value}"])
        assert cfg == configure(ExperimentConfig(), [(key, value)])
        assert cfg != ExperimentConfig()

    @pytest.mark.parametrize("key", sorted(SAMPLE_SETTINGS))
    def test_empty_value_names_the_key(self, key):
        with pytest.raises(ConfigError, match=repr(key)):
            parse_config(None, [f"{key}="])
        with pytest.raises(ConfigError, match=repr(key)):
            configure(ExperimentConfig(), [(key, " \t")])

    def test_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes("seed = 3\n".encode("utf-8-sig"))
        assert parse_config(path).seed == 3


class TestMainExitCodes:
    def test_run_ok(self, tmp_path, capsys):
        rc = main(["run", "--set", f"dump_dir={tmp_path/'out'}", "--set", "timesteps=2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "blended_fraction" in out

    def test_memory_error_is_1_with_one_error_line(self, tmp_path, monkeypatch, capsys):
        def too_large(cfg):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setattr(cli, "run_pipeline", too_large)
        assert main(["run", "--set", f"dump_dir={tmp_path / 'out'}"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: configuration too large to allocate: Unable to allocate 8.00 EiB"]
        assert list(tmp_path.iterdir()) == []

    def test_validation_error_is_1(self, capsys):
        rc = main(["run", "--set", "alpha=-1"])
        assert rc == 1
        assert "alpha" in capsys.readouterr().err

    def test_missing_config_file_is_1(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 1

    def test_empty_dump_dir_is_1_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["run", "--set", "dump_dir=", "--set", "timesteps=2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "'dump_dir'" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "text, named",
        [
            (b"timesteps = 2  # caf\xe9\n", "c.cfg"),
            (b"timesteps = 2\ndump_dir = a\x00b\n", "dump_dir"),
        ],
        ids=["not_utf8", "nul_in_dump_dir"],
    )
    def test_unusable_config_file_is_1_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, text, named
    ):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "c.cfg"
        path.write_bytes(text)
        rc = main(["run", "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert named in err
        assert list(tmp_path.iterdir()) == [path]

    def test_unknown_sweep_param_is_1(self, tmp_path, capsys):
        rc = main(
            ["sweep", "--param", "heads", "--values", "1,2",
             "--set", f"dump_dir={tmp_path/'s'}"]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "override, expected_rc",
        [
            ("perturbation=nan", 1),
            ("perturbation=inf", 1),
            ("eps=inf", 1),
            ("eps=nan", 1),
            ("alpha=inf", 1),
            # finite, but the style features overflow mid-run
            ("perturbation=1e300", 2),
            # finite float64 features, but beyond float32 range in features_out.asit
            ("perturbation=1e40", 2),
            # finite features, but the head distances overflow
            ("perturbation=1e80", 2),
        ],
    )
    def test_non_finite_values_end_in_one_line_error(self, tmp_path, capsys, override, expected_rc):
        rc = main(["run", "--set", override, "--set", "timesteps=2",
                   "--set", f"dump_dir={tmp_path/'out'}"])
        assert rc == expected_rc
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "finite" in err

    def test_overflow_in_a_split_kernel_ends_in_one_line_error(self, tmp_path, monkeypatch,
                                                               capsys):
        # At the mid_bypass shape the distances split over the helper thread, whose half
        # overflows as the caller's does: NumPy's error state must be the caller's there too.
        monkeypatch.setattr(numeric, "_CPUS", 2)
        rc = main(["run", "--set", "heads=16", "--set", "head_dim=16", "--set", "positions=256",
                   "--set", "tokens=16", "--set", "timesteps=2", "--set", "perturbation=1e200",
                   "--set", f"dump_dir={tmp_path/'out'}"])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "internal error: head distance is not finite (covariance difference overflowed)"

    def test_set_item_without_equals_is_1_with_one_error_line(self, capsys):
        # An invalid configuration, like every other bad --set item.
        assert main(["run", "--set", "foo"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: --set 'foo': expected 'key=value'"]

    @pytest.mark.parametrize("argv", [["run", "--set", "-x"], ["run", "--bogus"], []])
    def test_malformed_command_line_is_1_with_one_error_line(self, argv, capsys):
        # "--set -x" reads -x as an option, so --set has no value; argparse exited 2 with usage.
        assert exit_code(argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")

    def test_failed_run_leaves_earlier_output_unchanged(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--set", "timesteps=2", "--set", f"dump_dir={out}"]) == 0
        before = digests(out)
        capsys.readouterr()
        rc = main(["run", "--set", "timesteps=2", "--set", "perturbation=1e40",
                   "--set", f"dump_dir={out}"])
        assert rc == 2
        assert digests(out) == before
        assert partials(tmp_path) == []
        # The writer writes each artifact to a temporary name; the error names the artifact.
        assert capsys.readouterr().err.splitlines() == [
            f"internal error: {out / 'features_out.asit'}: values must be finite as float32 "
            "(NaN, Inf or overflow)"]

    def test_failed_run_creates_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["run", "--set", "timesteps=2", "--set", "perturbation=1e40",
                   "--set", "dump_dir=fresh/out"])
        assert rc == 2
        assert not (tmp_path / "fresh" / "out").exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "overrides",
        [
            ["positions=4000000000"],
            ["tokens=3000000000"],
            ["timesteps=100000000000"],
            ["heads=100000", "head_dim=100000"],
        ],
    )
    def test_config_too_large_to_allocate_is_1(self, tmp_path, overrides):
        resource = pytest.importorskip("resource")
        cap = 3 * 2**30  # bytes of address space, so no allocation depends on overcommit

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        argv = [sys.executable, "-m", "asi.cli", "run", "--set", f"dump_dir={tmp_path / 'out'}"]
        for override in overrides:
            argv += ["--set", override]
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            argv,
            env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=limit_address_space,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr[-2000:]
        assert len(proc.stderr.splitlines()) == 1
        assert "too large" in proc.stderr


# (subcommand, the artifact a directory is put at, its directory under dump_dir)
FORCED = [
    pytest.param(["run"], "mask_head_3.pgm", "", id="run"),
    pytest.param(["dump-masks"], "mask_head_3.pgm", "", id="dump-masks"),
    pytest.param(["ddim-roundtrip", "--dump"], "step_2.asit", "trajectory", id="ddim-roundtrip"),
]


class TestPublishAllOrNothing:
    @pytest.mark.parametrize("command, victim, sub", FORCED)
    def test_a_directory_at_an_artifact_keeps_the_earlier_set(self, tmp_path, capsys, command,
                                                                victim, sub):
        out = tmp_path / "out"
        assert main([*command, "--set", "timesteps=2", "--set", f"dump_dir={out}"]) == 0
        (out / sub / victim).unlink()
        before = digests(out)
        (out / sub / victim).mkdir()
        capsys.readouterr()
        rc = main([*command, "--set", "timesteps=3", "--set", "seed=1", "--set", f"dump_dir={out}"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out / sub / victim}: a directory holds this artifact's name"]
        assert digests(out) == before
        assert partials(tmp_path) == []

    @pytest.mark.parametrize("first", [False, True], ids=["rerun", "first-run"])
    def test_a_write_failing_mid_set_keeps_the_earlier_set(self, tmp_path, monkeypatch, capsys,
                                                           first):
        out = tmp_path / "fresh" / "out"
        if not first:
            assert main(["run", "--set", "timesteps=2", "--set", f"dump_dir={out}"]) == 0
        before = digests(out) if not first else None
        render = harness.render_mask_pgm

        def full_disk(path, mask_slice):  # as ENOSPC would, once half the renders are written
            if path.name.startswith("mask_head_4"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return render(path, mask_slice)

        monkeypatch.setattr(harness, "render_mask_pgm", full_disk)
        capsys.readouterr()
        rc = main(["run", "--set", "timesteps=3", "--set", "seed=1", "--set", f"dump_dir={out}"])
        assert rc == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        if first:
            assert list(tmp_path.iterdir()) == []
        else:
            assert digests(out) == before
            assert partials(tmp_path) == []

    def test_no_temporary_is_left_after_a_success(self, tmp_path, capsys):
        target = ["--set", "timesteps=2", "--set", f"dump_dir={tmp_path}"]
        for command in (["run"], ["dump-masks"], ["ddim-roundtrip", "--dump"],
                        ["sweep", "--param", "n", "--values", "0,2"]):
            assert main([*command, *target]) == 0
        assert (tmp_path / "sweep.csv").exists()
        assert partials(tmp_path) == []


CONFIG_KEYS = st.sampled_from([*SAMPLE_SETTINGS, "bogus", "Heads", "n ", ""])
ODD_VALUES = st.sampled_from(["\0", "1\0", "nan", "NaN", "inf", "-inf", "1e40", "-1e40",
                              str(10**30), str(-10**30), "", " ", "0", "1", "2", "-1", "0.5",
                              "1e-320", "true", "off", "0x10", "1_000", "#"])
SET_ITEMS = st.one_of(
    st.builds("{}={}".format, CONFIG_KEYS, st.one_of(ODD_VALUES, st.text(max_size=8))),
    st.text(max_size=8),
)
# The tiny-shape settings go last, so drawn shape values are parsed and checked but never run.
TINY = st.fixed_dictionaries({
    "heads": st.integers(1, 2), "head_dim": st.integers(1, 2), "positions": st.integers(2, 4),
    "tokens": st.integers(1, 2), "timesteps": st.integers(1, 2),
    "layers_per_step": st.integers(1, 2)})
TINY_EXAMPLE = {"heads": 2, "head_dim": 2, "positions": 4, "tokens": 2, "timesteps": 2,
                "layers_per_step": 1}


@settings(max_examples=150, deadline=None)
@example(command="run", items=["perturbation=1e40"], tiny=TINY_EXAMPLE)  # beyond float32: exit 2
@example(command="run", items=["perturbation=1e200"], tiny=TINY_EXAMPLE)  # distances overflow
@example(command="run", items=["-x"], tiny=TINY_EXAMPLE)  # "--set -x": -x read as an option
@given(command=st.sampled_from(["run", "dump-masks"]), items=st.lists(SET_ITEMS, max_size=6),
       tiny=TINY)
def test_drawn_settings_exit_cleanly_and_a_failure_keeps_the_earlier_set(command, items, tiny):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        # n=1 first, as heads <= 2 rejects the default n=6; a drawn n overrides it.
        settings_ = ["n=1", *items, *(f"{key}={value}" for key, value in tiny.items()),
                     f"dump_dir={out}"]
        argv = [command, *(arg for item in settings_ for arg in ("--set", item))]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert main(["run", "--set", "heads=2", "--set", "n=1", "--set", "positions=4",
                         "--set", "timesteps=2", "--set", f"dump_dir={out}"]) == 0
            before = digests(out)
            rc = exit_code(argv)
        event(f"exit {rc}")
        assert rc in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        assert partials(Path(tmp)) == []
        if rc == 0:
            assert stderr.getvalue() == ""
        else:
            (line,) = stderr.getvalue().splitlines()
            assert line.startswith(("error: ", "internal error: "))
            assert digests(out) == before


class TestRunCommand:

    def test_rerun_leaves_no_earlier_mask_artifacts(self, tmp_path):
        def files(out, *overrides):
            assert main(["run", "--set", "timesteps=2", *overrides, "--set", f"dump_dir={out}"]) == 0
            return sorted(p.name for p in out.iterdir())

        shared = tmp_path / "shared"
        runs = [[], ["--set", "heads=4", "--set", "n=2"],
                ["--set", "heads=4", "--set", "n=2", "--set", "apply_asi=false"]]
        for i, overrides in enumerate(runs):
            names = files(shared, *overrides)
            assert names == files(tmp_path / f"fresh{i}", *overrides)
        assert not any("mask" in name for name in names)

    def test_rerun_overwrites_instead_of_appending(self, tmp_path):
        target = tmp_path / "out"
        for _ in range(2):
            assert main(["run", "--set", f"dump_dir={target}", "--set", "timesteps=2"]) == 0
        with (target / "report.csv").open() as fh:
            assert len(fh.readlines()) == 3  # header + 2 steps


class TestSweepCommand:
    def test_sweep_writes_combined_csv(self, tmp_path, capsys):
        rc = main(
            ["sweep", "--param", "n", "--values", "0,2,4",
             "--set", f"dump_dir={tmp_path/'s'}", "--set", "timesteps=2"]
        )
        assert rc == 0
        assert (tmp_path / "s" / "sweep.csv").exists()
        out = capsys.readouterr().out
        assert "n=0" in out and "n=4" in out

    def test_prints_the_value_that_ran(self, tmp_path, capsys):
        rc = main(
            ["sweep", "--param", "alpha", "--values", "0.70,1",
             "--set", f"dump_dir={tmp_path/'s'}", "--set", "timesteps=2"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:2]] == ["alpha=0.7", "alpha=1.0"]
        dirs = sorted(p.name for p in (tmp_path / "s").iterdir() if p.is_dir())
        assert dirs == ["alpha_0.7", "alpha_1.0"]

    def test_failed_sweep_leaves_no_earlier_csv(self, tmp_path, capsys):
        target = ["--set", f"dump_dir={tmp_path/'s'}", "--set", "timesteps=2"]
        assert main(["sweep", "--param", "perturbation", "--values", "1,2", *target]) == 0
        csv_path = tmp_path / "s" / "sweep.csv"
        before = csv_path.read_bytes()
        # A rejected sweep writes nothing, so the earlier CSV stays.
        assert main(["sweep", "--param", "perturbation", "--values", "3,x", *target]) == 1
        assert csv_path.read_bytes() == before
        # One that fails part-way has removed it: it would list runs this sweep did not make.
        assert main(["sweep", "--param", "perturbation", "--values", "3,1e40", *target]) == 2
        assert not csv_path.exists()
        assert (tmp_path / "s" / "perturbation_3.0" / "report.csv").exists()

    def test_empty_value_entry_is_1_and_writes_nothing(self, tmp_path, capsys):
        rc = main(
            ["sweep", "--param", "n", "--values", "0,,2,",
             "--set", f"dump_dir={tmp_path/'s'}", "--set", "timesteps=2"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "'n'" in err
        assert list(tmp_path.iterdir()) == []


class TestRoundtripCommand:
    def test_roundtrip_passes_and_reports_error(self, capsys):
        rc = main(["ddim-roundtrip", "--set", "timesteps=50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max roundtrip error" in out
        error = float(out.split(":")[-1])
        assert error < 1e-6

    def test_roundtrip_beyond_tolerance_is_2_with_one_fail_line(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "ROUNDTRIP_TOLERANCE", 0.0)  # every error reaches it
        assert main(["ddim-roundtrip", "--set", "timesteps=4"]) == 2
        captured = capsys.readouterr()
        assert "max roundtrip error over 4 steps" in captured.out
        assert captured.err.splitlines() == ["FAIL: roundtrip error >= 0.0"]

    def test_roundtrip_can_dump_trajectory(self, tmp_path):
        rc = main(
            ["ddim-roundtrip", "--dump", "--set", f"dump_dir={tmp_path/'rt'}",
             "--set", "timesteps=8"]
        )
        assert rc == 0
        manifest = tmp_path / "rt" / "trajectory" / "trajectory.csv"
        assert manifest.exists()
        assert (tmp_path / "rt" / "trajectory" / "step_0.asit").exists()
        assert (tmp_path / "rt" / "trajectory" / "step_8.asit").exists()


class TestDumpMasksCommand:
    def test_writes_masks_and_renders(self, tmp_path, capsys):
        rc = main(["dump-masks", "--set", f"dump_dir={tmp_path/'m'}"])
        assert rc == 0
        fused = load_tensor(tmp_path / "m" / "fused_mask.asit")
        assert fused.shape == (8, 16, 8)
        assert np.isin(fused, (0.0, 1.0)).all()
        for i in range(8):
            assert (tmp_path / "m" / f"mask_head_{i}.pgm").exists()
        assert "heads selected: 6" in capsys.readouterr().out

    def test_rerun_leaves_no_earlier_renders(self, tmp_path):
        out = tmp_path / "m"
        assert main(["dump-masks", "--set", f"dump_dir={out}"]) == 0
        assert main(["dump-masks", "--set", "heads=4", "--set", "n=2", "--set", f"dump_dir={out}"]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["head_mask.asit", "spatial_mask.asit", "fused_mask.asit",
             *(f"mask_head_{i}.pgm" for i in range(4))]
        )

    def test_seed0_output_matches_golden_digests(self, tmp_path):
        assert main(["dump-masks", "--set", f"dump_dir={tmp_path/'m'}"]) == 0
        expected = {}
        for line in (GOLDEN / "dump_masks.sha256").read_text().splitlines():
            digest, name = line.split("  ")
            expected[name] = digest
        written = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "m").iterdir()
        }
        assert written == expected


    def test_seed0_trajectory_dump_matches_golden_digests(self, tmp_path):
        assert main(["ddim-roundtrip", "--dump", "--set", "timesteps=8",
                     "--set", f"dump_dir={tmp_path/'rt'}"]) == 0
        expected = {}
        for line in (GOLDEN / "roundtrip_dump.sha256").read_text().splitlines():
            digest, name = line.split("  ")
            expected[name] = digest
        written = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (tmp_path / "rt" / "trajectory").iterdir()
        }
        assert written == expected
