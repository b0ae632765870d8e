"""Logging integration and the ``python -m repro`` entry point."""

import logging
import subprocess
import sys

import repro


FAST = dict(n_trials=1, relevance_samples=50, sigma_tolerance=0.1)


class TestLogging:
    def test_success_logged_at_info(self, small_profile_graph, caplog):
        with caplog.at_level(logging.INFO, logger="repro.core.chameleon"):
            result = repro.anonymize(
                small_profile_graph, k=4, epsilon=0.1, seed=0, **FAST
            )
        assert result.success
        assert any("anonymize ok" in rec.message for rec in caplog.records)

    def test_sigma_probes_logged_at_debug(self, small_profile_graph, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.core.chameleon"):
            repro.anonymize(small_profile_graph, k=4, epsilon=0.1, seed=1,
                            **FAST)
        probes = [r for r in caplog.records if "GenObf sigma" in r.message]
        assert len(probes) >= 2

    def test_failure_logged_as_warning(self, caplog):
        from repro.ugraph import UncertainGraph

        star = UncertainGraph(6, [(0, i, 1.0) for i in range(1, 6)])
        with caplog.at_level(logging.WARNING, logger="repro.core.chameleon"):
            result = repro.anonymize(
                star, k=2, epsilon=0.0, seed=2, sigma_initial=0.25,
                sigma_max=0.5, **FAST,
            )
        assert not result.success
        assert any("FAILED" in rec.message for rec in caplog.records)

    def test_quiet_by_default(self, small_profile_graph, capsys):
        """No handler configured: nothing leaks to stdout/stderr."""
        repro.anonymize(small_profile_graph, k=4, epsilon=0.1, seed=3, **FAST)
        captured = capsys.readouterr()
        assert captured.out == ""


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self, tmp_path):
        out = tmp_path / "g.pel"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "generate", "ppi", str(out),
             "--scale", "0.15", "--seed", "1"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_python_dash_m_repro_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "anonymize" in proc.stdout
