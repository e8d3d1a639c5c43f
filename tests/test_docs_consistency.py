"""Documentation consistency guards.

DESIGN.md promises a per-experiment index and EXPERIMENTS.md records
paper-vs-measured results; these tests keep both in sync with the code so
the documentation cannot silently rot.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def design_text() -> str:
    return (ROOT / "DESIGN.md").read_text()


@pytest.fixture(scope="module")
def experiments_text() -> str:
    return (ROOT / "EXPERIMENTS.md").read_text()


@pytest.fixture(scope="module")
def readme_text() -> str:
    return (ROOT / "README.md").read_text()


class TestDesignDoc:
    def test_confirms_paper_identity(self, design_text):
        assert "Memory Bandwidth Limitations of Future Microprocessors" in design_text
        assert "ISCA 1996" in design_text

    def test_indexes_every_paper_artifact(self, design_text):
        for artifact in (
            "Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
            "Table 1", "Table 2", "Table 3", "Table 6", "Table 7",
            "Table 8",
        ):
            assert artifact in design_text, artifact

    def test_mentions_every_experiment_module(self, design_text):
        from repro.cli import EXPERIMENT_MODULES

        for name in EXPERIMENT_MODULES:
            assert f"{name}.py" in design_text, name

    def test_states_the_scaling_policy(self, design_text):
        assert "Scaling policy" in design_text or "scale" in design_text.lower()

    def test_lists_substitutions(self, design_text):
        for substituted in ("SimpleScalar", "DineroIII", "QPT"):
            assert substituted in design_text, substituted


class TestExperimentsDoc:
    def test_covers_every_table_and_figure(self, experiments_text):
        for heading in (
            "Figure 1", "Figure 2", "Figure 3", "Figure 4",
            "Table 1", "Table 2", "Table 3", "Table 6",
            "Table 7", "Table 8", "Tables 9 and 10",
        ):
            assert heading in experiments_text, heading

    def test_has_extension_results(self, experiments_text):
        assert "Figure 5" in experiments_text
        assert "Horwitz" in experiments_text
        assert "multiprocessor scaling" in experiments_text

    def test_explains_trace_length_caveat(self, experiments_text):
        assert "trace length" in experiments_text

    def test_records_paper_values_next_to_measured(self, experiments_text):
        # Spot checks: the paper's numbers must appear for comparison.
        assert "7.44" in experiments_text   # Table 7 Su2cor @ 1KB
        assert "124.1" in experiments_text  # Table 8 Swm @ 1MB
        assert "46.8" in experiments_text   # Table 6 Compress A f_L


class TestReadme:
    def test_lists_every_example_that_exists(self, readme_text):
        for example in (ROOT / "examples").glob("*.py"):
            assert example.name in readme_text, example.name

    def test_no_phantom_examples(self, readme_text):
        import re

        mentioned = set(re.findall(r"`(\w+\.py)`", readme_text))
        existing = {p.name for p in (ROOT / "examples").glob("*.py")}
        phantom = {
            name
            for name in mentioned
            if name not in existing and name != "settings.py"
        }
        assert not phantom, phantom

    def test_quickstart_install_commands_present(self, readme_text):
        assert "pytest tests/" in readme_text
        assert "regenerate_experiments.py" in readme_text
