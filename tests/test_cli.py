"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main
from repro.experiments.harness import NOT_APPLICABLE

GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_e1_defaults(self):
        args = build_parser().parse_args(["e1"])
        assert args.objects == 100
        assert args.warmup == 100.0

    def test_fig6_custom_fractions(self):
        args = build_parser().parse_args(
            ["fig6", "--fractions", "0.2", "0.8"])
        assert args.fractions == [0.2, 0.8]

    def test_fig5_flags(self):
        args = build_parser().parse_args(["fig5", "--fluctuating",
                                          "--days", "2"])
        assert args.fluctuating is True
        assert args.days == 2.0

    def test_multicache_defaults(self):
        args = build_parser().parse_args(["multicache"])
        assert args.num_caches == [1, 2, 4]
        assert args.topology == "sharded"
        assert args.replication == 2

    def test_multicache_topology_choices(self):
        args = build_parser().parse_args(
            ["multicache", "--num-caches", "4", "--topology", "replicated"])
        assert args.num_caches == [4]
        assert args.topology == "replicated"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["multicache", "--topology", "mesh"])

    @pytest.mark.parametrize("command", [
        "netcond", "faults", "rebalance", "multicast"])
    def test_experiment_has_no_generator_flag(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--generator", "legacy"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7"])


class TestExecution:
    def test_e1_tiny_run(self, capsys):
        code = main(["e1", "--objects", "10", "--warmup", "10",
                     "--measure", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "staleness" in out and "lag" in out

    def test_e2_tiny_run(self, capsys):
        assert main(["e2", "--warmup", "20", "--measure", "80"]) == 0
        assert "skewed" in capsys.readouterr().out

    def test_e3_tiny_run(self, capsys):
        assert main(["e3", "--alphas", "1.1", "--omegas", "10",
                     "--sources", "2", "--objects", "5",
                     "--warmup", "10", "--measure", "50"]) == 0
        assert "best setting" in capsys.readouterr().out

    def test_fig4_tiny_run(self, capsys):
        assert main(["fig4", "--sources", "2", "--objects", "5",
                     "--cache-bandwidths", "5",
                     "--warmup", "20", "--measure", "60"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_fig5_tiny_run(self, capsys):
        assert main(["fig5", "--bandwidths", "5", "--days", "1",
                     "--warmup-days", "0.25"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_multicache_tiny_run(self, capsys):
        assert main(["multicache", "--num-caches", "1", "2",
                     "--sources", "4", "--objects", "4",
                     "--warmup", "20", "--measure", "60"]) == 0
        out = capsys.readouterr().out
        assert "Multi-cache sweep" in out and "uniform" in out

    def test_fig6_tiny_run(self, capsys):
        assert main(["fig6", "--sources", "2", "--objects", "5",
                     "--fractions", "0.5",
                     "--warmup", "20", "--measure", "80"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "result.txt"
        assert main(["--output", str(out_file), "e1",
                     "--objects", "5", "--warmup", "10",
                     "--measure", "40"]) == 0
        assert out_file.read_text().strip() != ""
        assert "uniform" in out_file.read_text()


class TestScaleCommand:
    def test_scale_defaults(self):
        args = build_parser().parse_args(["scale"])
        assert args.sources == [100, 1000, 10000]
        assert args.update_rate == 0.002
        assert args.max_tick_sources == 2000

    def test_scale_tiny_run(self, capsys):
        assert main(["scale", "--sources", "20", "--warmup", "10",
                     "--measure", "40"]) == 0
        out = capsys.readouterr().out
        assert "scale sweep" in out
        assert "bit-for-bit" in out

    def test_scale_skips_tick_baseline_above_cap(self, capsys):
        assert main(["scale", "--sources", "30", "--warmup", "10",
                     "--measure", "30", "--max-tick-sources", "10"]) == 0
        out = capsys.readouterr().out
        assert "tick" not in out.split("scheduler", 1)[1].split("\n")[2]

    def test_scale_rejects_unknown_generator(self):
        """Workloads have one sampler: there is no --generator flag."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scale", "--generator", "legacy"])


class TestNetCondCommand:
    def test_netcond_defaults(self):
        args = build_parser().parse_args(["netcond"])
        assert args.scenarios == ["steady", "diurnal", "bursty",
                                  "outage"]
        assert args.topologies == ["star", "sharded-4"]
        assert args.sources == 16
        assert args.cache_bandwidth == 20.0

    def test_netcond_partial_matrix_reports_na(self, capsys):
        assert main(["netcond", "--scenarios", "steady",
                     "--topologies", "star",
                     "--sources", "4", "--objects", "2",
                     "--warmup", "20", "--measure", "60"]) == 0
        out = capsys.readouterr().out
        assert ("steady trace == constant bandwidth (cooperative, "
                "bitwise): yes") in out
        assert (f"outage degrades every policy vs steady: "
                f"{NOT_APPLICABLE}") in out
        assert (f"cooperative degrades no worse than uniform under "
                f"outage: {NOT_APPLICABLE}") in out
        assert "WARNING" not in out

    def test_netcond_rejects_unknown_scenario(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["netcond", "--scenarios", "foggy"])

    def test_netcond_rejects_unknown_topology(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["netcond", "--topologies", "mesh"])


class TestReadModelCommand:
    def test_readmodel_defaults(self):
        args = build_parser().parse_args(["readmodel"])
        assert args.num_caches == 3
        assert args.replication == [1, 2, 3]
        assert args.read_rate == 0.5
        assert args.cache_bandwidths == [18.0]

    def test_readmodel_tiny_run(self, capsys):
        assert main(["readmodel", "--replication", "2",
                     "--sources", "4", "--objects", "3",
                     "--num-caches", "2",
                     "--warmup", "20", "--measure", "60"]) == 0
        out = capsys.readouterr().out
        assert "Replicated read model" in out
        assert "monotone non-increasing in k: yes" in out
        assert "matches freshest-replica exactly: yes" in out

    def test_readmodel_single_cache_matches_star(self, capsys):
        assert main(["readmodel", "--num-caches", "1",
                     "--replication", "1",
                     "--sources", "4", "--objects", "3",
                     "--warmup", "20", "--measure", "60"]) == 0
        out = capsys.readouterr().out
        assert ("single-cache reads match star CacheStore.read "
                "bit-for-bit: yes") in out

    def test_readmodel_rejects_unknown_generator(self):
        """Workloads have one sampler: there is no --generator flag."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["readmodel", "--generator",
                                       "legacy"])


class TestMulticastCommand:
    def test_multicast_defaults(self):
        args = build_parser().parse_args(["multicast"])
        assert args.deliveries == ["unicast", "multicast"]
        assert args.replications == [1, 2, 4]
        assert args.num_caches == 4
        assert args.cache_bandwidth == 12.0

    def test_multicast_partial_matrix_reports_na(self, capsys):
        assert main(["multicast", "--deliveries", "unicast",
                     "--replications", "2",
                     "--sources", "4", "--objects", "3",
                     "--warmup", "20", "--measure", "40"]) == 0
        out = capsys.readouterr().out
        assert "n/a (cells not in this matrix)" in out

    def test_multicast_rejects_unknown_delivery(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["multicast", "--deliveries",
                                       "broadcast"])

    def test_multicache_delivery_flag(self):
        args = build_parser().parse_args(["multicache", "--delivery",
                                          "multicast"])
        assert args.delivery == "multicast"
        args = build_parser().parse_args(["readmodel"])
        assert args.delivery == "unicast"


class TestRebalanceCommand:
    def test_rebalance_partial_matrix_reports_na(self, capsys):
        assert main(["rebalance", "--num-caches", "1",
                     "--sources", "4", "--objects", "2",
                     "--warmup", "20", "--measure", "60"]) == 0
        out = capsys.readouterr().out
        assert "inert rebalancer == static sharding (bitwise): yes" in out
        assert (f"adaptive migrates at every cache count >= 2: "
                f"{NOT_APPLICABLE}") in out
        assert (f"adaptive beats static at every cache count >= 2: "
                f"{NOT_APPLICABLE}") in out
        assert "WARNING" not in out


class TestGoldenOutputs:
    """The CI-sized E11-E14 matrices, byte for byte.

    ``tests/golden/NAME.args`` holds the command line (shared with the
    CI smoke job) and ``NAME.txt`` the ``--output`` file captured from
    the per-experiment implementations the shared harness replaced.
    """

    @pytest.mark.parametrize("name",
                             ["netcond", "faults", "rebalance", "multicast"])
    def test_matches_golden(self, name, tmp_path):
        out = tmp_path / f"{name}.txt"
        args = (GOLDEN / f"{name}.args").read_text().split()
        assert main(["--output", str(out), name, *args,
                     "--workers", "1"]) == 0
        assert out.read_bytes() == (GOLDEN / f"{name}.txt").read_bytes()


class TestProfileCommand:
    def test_profile_wraps_subcommand(self, capsys):
        assert main(["profile", "--top", "5", "scale", "--sources", "15",
                     "--warmup", "10", "--measure", "30"]) == 0
        out = capsys.readouterr().out
        assert "scale sweep" in out  # the wrapped command's output
        assert "cProfile" in out
        assert "cumulative" in out

    def test_profile_requires_target(self):
        with pytest.raises(SystemExit):
            main(["profile"])

    def test_profile_refuses_recursion(self):
        with pytest.raises(SystemExit):
            main(["profile", "profile", "scale"])


class TestCacheRatesFlag:
    def test_parses_comma_separated_rates(self):
        args = build_parser().parse_args(
            ["multicache", "--cache-rates", "8,4,2"])
        assert args.cache_rates == (8.0, 4.0, 2.0)

    def test_rejects_garbage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["multicache", "--cache-rates", "fast,slow"])

    def test_heterogeneous_tiny_run(self, capsys):
        assert main(["multicache", "--cache-rates", "10,6",
                     "--sources", "4", "--objects", "4",
                     "--warmup", "20", "--measure", "60"]) == 0
        out = capsys.readouterr().out
        assert "heterogeneous cache rates" in out
        # the rates pin the sweep to a single 2-cache point
        assert out.count("sharded") == 1
