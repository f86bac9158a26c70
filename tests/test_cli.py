import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

    def test_failed_run_leaves_earlier_output_unchanged(self, tmp_path, capsys):
        out = tmp_path / "out"

        def digests():
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}

        assert main(["run", "--set", "timesteps=2", "--set", f"dump_dir={out}"]) == 0
        before = digests()
        rc = main(["run", "--set", "timesteps=2", "--set", "perturbation=1e40",
                   "--set", f"dump_dir={out}"])
        assert rc == 2
        assert digests() == before

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
