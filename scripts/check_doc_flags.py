"""Doc-consistency check: every config knob must be documented.

Walks the fields of each CI-enforced config dataclass and asserts each
field name appears in backticks in that dataclass's doc set:

* ``EngineConfig`` (the match fast path) — the README configuration
  table, `docs/performance.md` and `docs/MATCHING.md`;
* ``ServingConfig`` (the workbench server) — the README,
  `docs/SERVING.md` and `docs/performance.md`;
* ``BlockingConfig`` (candidate blocking, both strategies) —
  `docs/performance.md` and `docs/MATCHING.md`;
* ``EmbedConfig`` / ``AnnConfig`` (the dense-embedding subsystem) —
  `docs/performance.md`,

so adding a flag without documenting it fails CI.  The reverse holds
for the README's ``EngineConfig`` table (``TABLE_SETS``): its rows must
be exactly the dataclass's fields, so a deleted flag's row fails CI
instead of lingering.  Run directly::

    PYTHONPATH=src python scripts/check_doc_flags.py
"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

#: (config import, doc paths): every listed file must mention every field
DOC_SETS = [
    (
        ("repro.harmony.engine", "EngineConfig"),
        [
            "README.md",
            os.path.join("docs", "performance.md"),
            os.path.join("docs", "MATCHING.md"),
        ],
    ),
    (
        ("repro.serving.config", "ServingConfig"),
        [
            "README.md",
            os.path.join("docs", "SERVING.md"),
            os.path.join("docs", "performance.md"),
        ],
    ),
    (
        ("repro.harmony.blocking", "BlockingConfig"),
        [
            os.path.join("docs", "performance.md"),
            os.path.join("docs", "MATCHING.md"),
        ],
    ),
    (
        ("repro.embed.embedder", "EmbedConfig"),
        [
            os.path.join("docs", "performance.md"),
        ],
    ),
    (
        ("repro.embed.ann", "AnnConfig"),
        [
            os.path.join("docs", "performance.md"),
        ],
    ),
]


#: (config import, doc path, heading): the first table under the heading
#: must have one row per field, named in backticks in its first column
TABLE_SETS = [
    (("repro.harmony.engine", "EngineConfig"), "README.md", "## Configuration"),
]


def _fields(module_name: str, class_name: str) -> list:
    sys.path.insert(0, os.path.join(REPO, "src"))
    import importlib

    config_class = getattr(importlib.import_module(module_name), class_name)
    return [f.name for f in dataclasses.fields(config_class)]


def _read(path: str) -> str:
    with open(os.path.join(REPO, path), "r", encoding="utf-8") as handle:
        return handle.read()


def table_rows(text: str, heading: str) -> list:
    """The backticked first-column names of the first table under
    *heading* (up to the next ``## `` heading)."""
    lines = text.splitlines()
    if heading not in lines:
        return []
    rows = []
    in_table = False
    for line in lines[lines.index(heading) + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("|"):
            in_table = True
            cell = line.split("|")[1].strip()
            if len(cell) > 2 and cell[0] == cell[-1] == "`":
                rows.append(cell[1:-1])
        elif in_table:
            break
    return rows


def table_mismatches(texts=None) -> list:
    """(config name, flag, doc path, problem) for every table row with no
    field (``"stale row"``) and every field with no row (``"missing
    row"``).  *texts* maps doc paths to contents to check instead of the
    files on disk."""
    texts = texts or {}
    mismatches = []
    for (module_name, class_name), path, heading in TABLE_SETS:
        flags = _fields(module_name, class_name)
        text = texts[path] if path in texts else _read(path)
        rows = table_rows(text, heading)
        for row in rows:
            if row not in flags:
                mismatches.append((class_name, row, path, "stale row"))
        for flag in flags:
            if flag not in rows:
                mismatches.append((class_name, flag, path, "missing row"))
    return mismatches


def undocumented_flags() -> list:
    """(config name, flag, doc-path) triples for every missing mention."""
    missing = []
    for (module_name, class_name), doc_paths in DOC_SETS:
        flags = _fields(module_name, class_name)
        for path in doc_paths:
            text = _read(path)
            for flag in flags:
                if (f"`{flag}`" not in text
                        and f"`{class_name}.{flag}`" not in text):
                    missing.append((class_name, flag, path))
    return missing


def main() -> int:
    missing = undocumented_flags()
    mismatches = table_mismatches()
    if missing or mismatches:
        for config_name, flag, path in missing:
            print(f"FAIL: {config_name}.{flag} is not documented in {path}",
                  file=sys.stderr)
        for config_name, flag, path, problem in mismatches:
            print(f"FAIL: {path}'s {config_name} table has a {problem} "
                  f"for `{flag}`", file=sys.stderr)
        print(f"{len(missing)} missing flag mention(s), {len(mismatches)} "
              f"table row mismatch(es); document each field in a "
              f"backticked table row or prose reference, and keep the "
              f"table's rows equal to the fields.", file=sys.stderr)
        return 1
    checked = ", ".join(class_name for (_, class_name), _ in DOC_SETS)
    print(f"doc-consistency OK: every {checked} field is documented, and "
          f"every config table lists exactly its fields")
    return 0


if __name__ == "__main__":
    sys.exit(main())
