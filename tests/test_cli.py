"""Tests for the repro-web command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--preset", "sun", "--scale", "0.1", "--out", "x.log"]
        )
        assert args.preset == "sun"
        assert args.scale == 0.1


class TestCommands:
    def test_generate_writes_log(self, tmp_path, capsys):
        out = tmp_path / "synthetic.log"
        code = main(["generate", "--preset", "marimba", "--scale", "0.05",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_generate_unknown_preset(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--preset", "nope", "--out", str(tmp_path / "x")])

    def test_stats_on_preset(self, capsys):
        code = main(["stats", "--preset", "aiusa", "--scale", "0.05",
                     "--min-accesses", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "requests" in output
        assert "unique resources" in output

    def test_stats_on_generated_file(self, tmp_path, capsys):
        out = tmp_path / "log"
        main(["generate", "--preset", "aiusa", "--scale", "0.05", "--out", str(out)])
        code = main(["stats", "--log", str(out), "--kind", "server",
                     "--min-accesses", "1"])
        assert code == 0

    def test_fig1_runs(self, capsys):
        code = main(["fig1", "--preset", "att_client", "--scale", "0.02",
                     "--min-accesses", "1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "level" in output

    def test_fig6_runs(self, capsys):
        code = main(["fig6", "--preset", "aiusa", "--scale", "0.05",
                     "--min-accesses", "2"])
        assert code == 0
        assert "variant" in capsys.readouterr().out

    def test_table1_runs(self, capsys):
        code = main(["table1", "--presets", "aiusa", "--scale", "0.05",
                     "--min-accesses", "2"])
        assert code == 0
        assert "aiusa" in capsys.readouterr().out

    def test_fig4_runs(self, capsys):
        code = main(["fig4", "--preset", "aiusa", "--scale", "0.03",
                     "--min-accesses", "2"])
        assert code == 0
        assert "min-gap" in capsys.readouterr().out

    def test_build_volumes_writes_artifact(self, tmp_path, capsys):
        from repro.volumes.state import load_volumes

        out = tmp_path / "volumes.json"
        code = main(["build-volumes", "--preset", "aiusa", "--scale", "0.05",
                     "--min-accesses", "2", "--out", str(out),
                     "--threshold", "0.3"])
        assert code == 0
        artifact = load_volumes(out)
        assert artifact.probability_threshold == 0.3
        assert artifact.source_log == "aiusa"
        assert len(artifact.volumes) > 0

    @pytest.mark.parametrize("name", ["snapshot.json", "meta.json"])
    def test_serve_refuses_a_damaged_state_dir(self, tmp_path, capsys, name):
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / name).write_bytes(b"{ torn")
        code = main(["serve", "--state-dir", str(state_dir), "--pages", "4",
                     "--port", "0", "--max-seconds", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert str(state_dir / name) in lines[0] and "not valid JSON" in lines[0]

    def test_simulate_runs(self, capsys):
        code = main(["simulate", "--preset", "aiusa", "--scale", "0.05",
                     "--min-accesses", "2", "--prefetch"])
        assert code == 0
        output = capsys.readouterr().out
        assert "fresh hit rate" in output
        assert "prefetches" in output

    def test_simulate_rejects_client_preset(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--preset", "att_client"])

    def test_roc_runs(self, capsys):
        code = main(["roc", "--preset", "aiusa", "--scale", "0.1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "changed fraction" in output

    def test_fig1_chart_flag(self, capsys):
        code = main(["fig1", "--preset", "att_client", "--scale", "0.02",
                     "--min-accesses", "1", "--chart"])
        assert code == 0
        assert "#" in capsys.readouterr().out


class TestTraceCommands:
    def test_gen_stats_verify_pipeline(self, tmp_path, capsys):
        path = str(tmp_path / "net.rpchunk")
        code = main(["trace", "gen", "--out", path, "--records", "2000",
                     "--origins", "4", "--clients", "5000", "--rate", "0.5",
                     "--seed", "8"])
        assert code == 0
        assert "wrote 2000 records" in capsys.readouterr().out

        code = main(["trace", "verify", path])
        assert code == 0
        assert "ok" in capsys.readouterr().out

        code = main(["trace", "stats", path])
        assert code == 0
        output = capsys.readouterr().out
        assert "requests             2000" in output
        assert "median response bytes" in output

        code = main(["trace", "stats", path, "--kind", "client"])
        assert code == 0
        assert "servers" in capsys.readouterr().out

    def test_stats_rejects_damaged_file(self, tmp_path, capsys):
        path = tmp_path / "bad.rpchunk"
        path.write_bytes(b"not a chunk file at all")
        code = main(["trace", "stats", str(path)])
        assert code == 2
        assert "trace stats:" in capsys.readouterr().err

    def test_verify_reports_damage(self, tmp_path, capsys):
        path = str(tmp_path / "net.rpchunk")
        main(["trace", "gen", "--out", path, "--records", "500",
              "--origins", "2", "--clients", "1000", "--rate", "0.5",
              "--seed", "3"])
        capsys.readouterr()
        data = bytearray(open(path, "rb").read())
        data[40] ^= 0x01
        open(path, "wb").write(bytes(data))
        code = main(["trace", "verify", path])
        assert code == 1
        assert "offset" in capsys.readouterr().err
