"""Public-API surface checks: exports, versioning, CLI help of every module."""

import subprocess
import sys

import pytest

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module", [
        "repro.autodiff", "repro.nn", "repro.optim", "repro.spectral",
        "repro.decomposition", "repro.core", "repro.baselines", "repro.data",
        "repro.tasks", "repro.experiments",
    ])
    def test_subpackage_all_resolves(self, module):
        import importlib
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"


class TestExperimentCLIs:
    @pytest.mark.parametrize("module", [
        "repro.experiments.table2", "repro.experiments.table4",
        "repro.experiments.table5", "repro.experiments.table6",
        "repro.experiments.table7", "repro.experiments.table8",
        "repro.experiments.table9", "repro.experiments.figures",
        "repro.experiments.sensitivity",
    ])
    def test_help_exits_cleanly(self, module):
        proc = subprocess.run([sys.executable, "-m", module, "--help"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "usage" in proc.stdout.lower()

    def test_repro_main_help(self):
        proc = subprocess.run([sys.executable, "-m", "repro", "--help"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0


class TestRuntimeDependencies:
    def test_library_imports_without_scipy(self):
        # numpy is the only runtime dependency; scipy is a test reference.
        code = ("import sys, repro, repro.cli, repro.serving; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestDocstringsPresent:
    @pytest.mark.parametrize("obj", [
        repro.TS3Net, repro.TS3NetConfig, repro.Tensor,
        repro.TripleDecomposition, repro.decompose_array, repro.set_seed,
    ])
    def test_public_objects_documented(self, obj):
        assert obj.__doc__ and len(obj.__doc__.strip()) > 10
