"""Docs must keep up with the code: every CI-enforced config flag
(EngineConfig, ServingConfig, BlockingConfig, EmbedConfig, AnnConfig)
documented in its doc set, and the README's EngineConfig table listing
exactly the dataclass's fields."""

import os
import sys

SCRIPTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"
)
sys.path.insert(0, SCRIPTS)

import check_doc_flags  # noqa: E402


def test_every_config_flag_is_documented():
    missing = check_doc_flags.undocumented_flags()
    assert not missing, (
        "undocumented config flags (add a backticked mention): "
        + ", ".join(f"{config}.{flag} in {path}"
                    for config, flag, path in missing)
    )
    assert check_doc_flags.table_mismatches() == []


def test_checker_covers_every_config_and_its_docs():
    doc_sets = {class_name: paths
                for (_, class_name), paths in check_doc_flags.DOC_SETS}
    assert set(doc_sets) == {
        "EngineConfig", "ServingConfig", "BlockingConfig",
        "EmbedConfig", "AnnConfig",
    }
    performance = os.path.join("docs", "performance.md")
    assert "README.md" in doc_sets["EngineConfig"]
    assert performance in doc_sets["EngineConfig"]
    assert os.path.join("docs", "MATCHING.md") in doc_sets["EngineConfig"]
    assert "README.md" in doc_sets["ServingConfig"]
    assert os.path.join("docs", "SERVING.md") in doc_sets["ServingConfig"]
    assert performance in doc_sets["ServingConfig"]
    assert performance in doc_sets["BlockingConfig"]
    assert os.path.join("docs", "MATCHING.md") in doc_sets["BlockingConfig"]
    assert performance in doc_sets["EmbedConfig"]
    assert performance in doc_sets["AnnConfig"]


def test_planted_stale_table_row_fails():
    """A row for a field the dataclass no longer has is reported."""
    readme = os.path.join(os.path.dirname(SCRIPTS), "README.md")
    with open(readme, "r", encoding="utf-8") as handle:
        text = handle.read()
    anchor = "| `parallelism` |"
    assert anchor in text
    planted = text.replace(
        anchor,
        "| `sparse_flooding` | `False` | `True` | a deleted flag |\n" + anchor,
        1,
    )
    mismatches = check_doc_flags.table_mismatches({"README.md": planted})
    assert mismatches == [
        ("EngineConfig", "sparse_flooding", "README.md", "stale row")]
    dropped = text.replace(anchor, "| `not_parallelism` |", 1)
    assert ("EngineConfig", "parallelism", "README.md", "missing row") in (
        check_doc_flags.table_mismatches({"README.md": dropped}))
