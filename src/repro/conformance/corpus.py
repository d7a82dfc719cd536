"""The replayable failure corpus under ``.repro-state/conformance/``.

Every divergence the harness finds is persisted as one JSON document --
the shrunk case itself, the divergence it produced, and the shrink
report -- named ``<oracle>-<target>-<digest>.json``.  The file *is*
the reproduction: ``repro conform replay <id-or-path>`` loads it and
re-executes the oracle on the stored payload, so a failure found in a
nightly fuzz run (or on another machine) replays locally with no seed
archaeology.

Writes are atomic (:func:`~repro.obs.state.atomic_write`), matching
the rest of the state directory's crash-safety discipline.
"""

import json
import os
import time

from repro.conformance.case import ConformanceCase
from repro.obs.state import atomic_write, state_dir

#: Subdirectory of the obs state dir holding the corpus.
CORPUS_DIRNAME = "conformance"


def corpus_dir(root=None):
    """The corpus directory as a Path (not created yet)."""
    return state_dir(root) / CORPUS_DIRNAME


def make_entry(case, divergence, shrink_report=None):
    """Build one corpus document from a (shrunk) failing case."""
    return {
        "id": case.digest(),
        "created": time.time(),
        "case": case.to_dict(),
        "divergence": divergence.to_dict(),
        "shrink": shrink_report or {},
    }


def entry_filename(entry):
    case = entry["case"]
    return f"{case['oracle']}-{case['target']}-{entry['id']}.json"


def save_entry(entry, root=None):
    """Atomically persist one corpus entry; returns its path."""
    directory = corpus_dir(root)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / entry_filename(entry)
    with atomic_write(path) as handle:
        json.dump(entry, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return path


def list_entries(root=None):
    """Every corpus entry, newest first."""
    directory = corpus_dir(root)
    if not directory.is_dir():
        return []
    entries = []
    for path in sorted(directory.glob("*.json")):
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        entry["_path"] = str(path)
        entries.append(entry)
    entries.sort(key=lambda entry: entry.get("created", 0), reverse=True)
    return entries


def load_entry(reference, root=None):
    """Load one corpus entry by path, filename, or (partial) id."""
    if os.path.isfile(reference):
        with open(reference) as handle:
            entry = json.load(handle)
        entry["_path"] = str(reference)
        return entry
    for entry in list_entries(root):
        if entry.get("id") == reference \
                or reference in os.path.basename(entry["_path"]):
            return entry
    raise FileNotFoundError(
        f"no corpus entry matching {reference!r} under "
        f"{corpus_dir(root)}"
    )


def entry_case(entry):
    """The :class:`ConformanceCase` stored in a corpus entry."""
    return ConformanceCase.from_dict(entry["case"])


def clear(root=None):
    """Delete every corpus entry; returns how many were removed."""
    directory = corpus_dir(root)
    removed = 0
    if directory.is_dir():
        for path in directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
    return removed
