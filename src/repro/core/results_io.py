"""Persistence for evaluation results: JSONL records + run manifests.

An :class:`~repro.core.metrics.EvalResult` round-trips to a JSONL file
whose first line is a manifest (model, dataset, setting) and whose
remaining lines are per-question records — the artifact format a
benchmark leaderboard would ingest.

Format version 2 adds **integrity checksums**: the manifest line
carries the SHA-256 of the record lines, writers are atomic
(write-to-temp + rename, so a kill cannot leave a half-written file),
and :func:`loads` rejects files whose bytes no longer match their
checksum — a torn write or bit flip surfaces as a
:class:`ValueError` instead of silently skewing a resumed sweep.
Version-1 files (no checksum) still load.  :func:`verify_file` /
:func:`verify_run` audit artifacts without deserialising them into a
run, backing the ``repro verify-run`` CLI subcommand.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.core.metrics import EvalRecord, EvalResult
from repro.core.question import Category

FORMAT_VERSION = 2
#: Versions :func:`loads` accepts; v1 predates checksums.
SUPPORTED_VERSIONS = (1, 2)
#: The sweep coordinator's commit log inside a run directory.  It is a
#: JSONL file but *not* a checkpoint: :func:`verify_run` audits it via
#: the coordinator's hash-chain verifier instead of :func:`verify_file`.
COMMIT_LOG_NAME = "commits.jsonl"


def atomic_write_text(path: "Path | str", text: str) -> Path:
    """Write ``text`` to ``path`` via a same-directory temp file + rename.

    The rename is atomic on POSIX, so readers observe either the old
    file or the complete new one — never a torn intermediate.  Shared
    by :func:`save`, the runner's checkpoints and its manifest writer.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)
    return path


def write_summary(path: "Path | str", payload: dict) -> Path:
    """Write a checksummed JSON summary artifact atomically.

    Used for run-level aggregates that do not fit the per-record JSONL
    format — e.g. the multi-sample pass@k summaries of a scaled sweep.
    The envelope carries a ``format_version`` and the SHA-256 of the
    canonical payload dump, so a torn write or edit is detectable; the
    ``.json`` suffix keeps these artifacts invisible to
    :func:`verify_run`'s ``*.jsonl`` glob.
    """
    body = json.dumps(payload, sort_keys=True)
    envelope = {
        "format_version": FORMAT_VERSION,
        "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
        "payload": payload,
    }
    return atomic_write_text(
        path, json.dumps(envelope, sort_keys=True, indent=2) + "\n")


def read_summary(path: "Path | str") -> dict:
    """Load and integrity-check a :func:`write_summary` artifact."""
    envelope = json.loads(Path(path).read_text(encoding="utf-8"))
    body = json.dumps(envelope["payload"], sort_keys=True)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if digest != envelope.get("sha256"):
        raise ValueError(f"summary checksum mismatch in {path}")
    return envelope["payload"]


def _records_checksum(record_lines: List[str]) -> str:
    """SHA-256 over the serialised record lines (joined with ``\\n``)."""
    payload = "\n".join(record_lines).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def dumps(result: EvalResult, telemetry: bool = True) -> str:
    """Serialise a result to JSONL text.

    ``telemetry=False`` omits the (timing-dependent) telemetry block so
    callers that need byte-stable artifacts — the parallel runner's
    checkpoints — can write a canonical form.  The manifest line
    embeds a ``sha256`` over the record lines in both modes.
    """
    record_lines = [
        json.dumps({
            "qid": record.qid,
            "category": record.category.value,
            "response": record.response,
            "correct": record.correct,
            "judge_method": record.judge_method,
            "perception": round(record.perception, 6),
        }, sort_keys=True)
        for record in result.records
    ]
    manifest = {
        "format_version": FORMAT_VERSION,
        "model": result.model_name,
        "dataset": result.dataset_name,
        "setting": result.setting,
        "resolution_factor": result.resolution_factor,
        "records": len(result.records),
        "sha256": _records_checksum(record_lines),
    }
    if telemetry and result.telemetry is not None:
        manifest["telemetry"] = {
            key: round(float(value), 6)
            for key, value in sorted(result.telemetry.items())
        }
    return "\n".join([json.dumps(manifest, sort_keys=True)] + record_lines)


def loads(text: str) -> EvalResult:
    """Inverse of :func:`dumps`.

    Unknown manifest and record keys are ignored (forward
    compatibility): a file written by a newer minor revision with extra
    fields still loads, as long as the format version is supported.
    Truncation (record-count mismatch) and corruption (checksum
    mismatch) both raise :class:`ValueError`; files declaring version 1
    have no checksum and skip that check.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty results file")
    manifest = json.loads(lines[0])
    version = manifest.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported results format {version}")
    result = EvalResult(
        model_name=manifest["model"],
        dataset_name=manifest["dataset"],
        setting=manifest["setting"],
        resolution_factor=manifest.get("resolution_factor", 1),
        telemetry=manifest.get("telemetry"),
    )
    for line in lines[1:]:
        data = json.loads(line)
        result.add(EvalRecord(
            qid=data["qid"],
            category=Category(data["category"]),
            response=data["response"],
            correct=data["correct"],
            judge_method=data["judge_method"],
            perception=data["perception"],
        ))
    if len(result.records) != manifest["records"]:
        raise ValueError(
            f"manifest promises {manifest['records']} records, file has "
            f"{len(result.records)} (truncated?)")
    expected = manifest.get("sha256")
    if expected is None:
        if version >= 2:
            raise ValueError("format v2 file is missing its sha256 checksum")
    else:
        actual = _records_checksum(lines[1:])
        if actual != expected:
            raise ValueError(
                f"checksum mismatch: manifest promises sha256 {expected}, "
                f"records hash to {actual} (corrupt file?)")
    return result


def save(result: EvalResult, path: "Path | str") -> Path:
    """Write a result to ``path`` as JSONL, atomically.

    Uses :func:`atomic_write_text` (temp file + rename) so a process
    kill mid-save cannot leave a half-written artifact behind.
    """
    return atomic_write_text(path, dumps(result) + "\n")


def load(path: "Path | str") -> EvalResult:
    """Read a result previously written by :func:`save`."""
    return loads(Path(path).read_text(encoding="utf-8"))


def load_run(out_dir: "Path | str") -> Dict[str, Dict[str, EvalResult]]:
    """Read a directory of result files, one :func:`save`-d
    ``<model>__<setting>.jsonl`` per cell, back into a run tree.

    The stem is split on the *last* ``__`` (settings never contain
    ``__``; model names may), so ``llava__next__no_choice.jsonl`` maps
    back to model ``llava__next``.
    """
    out_dir = Path(out_dir)
    results: Dict[str, Dict[str, EvalResult]] = {}
    for path in sorted(out_dir.glob("*__*.jsonl")):
        model_name, _, setting = path.stem.rpartition("__")
        results.setdefault(model_name, {})[setting] = load(path)
    if not results:
        raise ValueError(f"no result files in {out_dir}")
    return results


# -- integrity audit ----------------------------------------------------------

@dataclass(frozen=True)
class FileAudit:
    """Verdict for one artifact in a run directory."""

    name: str
    status: str             # ok | legacy | corrupt | missing
    records: int = 0
    detail: str = ""


@dataclass
class RunAudit:
    """Aggregate verdict of :func:`verify_run` over a run directory."""

    run_dir: str
    files: List[FileAudit] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no artifact is corrupt or missing."""
        return all(f.status in ("ok", "legacy") for f in self.files)

    def counts(self) -> Dict[str, int]:
        """Number of audited files per status."""
        totals: Dict[str, int] = {}
        for entry in self.files:
            totals[entry.status] = totals.get(entry.status, 0) + 1
        return totals


def verify_file(path: "Path | str") -> FileAudit:
    """Audit one JSONL artifact: parse, record count, checksum.

    ``ok`` means the file loads and its checksum verifies; ``legacy``
    means a version-1 file with no checksum to verify; ``corrupt``
    covers truncation, checksum mismatch and parse failures.
    """
    path = Path(path)
    if not path.exists():
        return FileAudit(name=path.name, status="missing",
                         detail="file not found")
    text = path.read_text(encoding="utf-8")
    try:
        result = loads(text)
    except (ValueError, KeyError, TypeError) as exc:
        return FileAudit(name=path.name, status="corrupt",
                         detail=f"{type(exc).__name__}: {exc}")
    head = json.loads(text.splitlines()[0])
    status = "ok" if head.get("sha256") else "legacy"
    detail = "" if status == "ok" else "v1 file, no checksum"
    return FileAudit(name=path.name, status=status,
                     records=len(result.records), detail=detail)


def _verify_commit_log(path: Path) -> FileAudit:
    """Audit a coordinator commit log through its sha256 hash chain."""
    # imported lazily: coordinator imports this module at load time
    from repro.core.coordinator import audit_commit_log

    valid, total, detail = audit_commit_log(path)
    if valid == total:
        return FileAudit(name=path.name, status="ok", records=valid)
    return FileAudit(
        name=path.name, status="corrupt", records=valid,
        detail=f"chain broken at entry {valid + 1}/{total}: {detail}")


def verify_run(run_dir: "Path | str",
               manifest_name: str = "manifest.json") -> RunAudit:
    """Audit every artifact in a run directory.

    Checks each ``*.jsonl`` checkpoint (parse + record count +
    checksum) and, when a runner ``manifest.json`` is present, that
    every checkpoint it references exists on disk.  A coordinator
    commit log (:data:`COMMIT_LOG_NAME`) is audited through its hash
    chain rather than the checkpoint parser.  Stray ``*.tmp`` files
    (evidence of an interrupted atomic write) are ignored — the rename
    discipline means the final artifacts are still whole.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ValueError(f"not a run directory: {run_dir}")
    audit = RunAudit(run_dir=str(run_dir))
    seen = set()
    for path in sorted(run_dir.glob("*.jsonl")):
        seen.add(path.name)
        if path.name == COMMIT_LOG_NAME:
            audit.files.append(_verify_commit_log(path))
        else:
            audit.files.append(verify_file(path))
    manifest_path = run_dir / manifest_name
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            audit.files.append(FileAudit(
                name=manifest_name, status="corrupt",
                detail=f"unparseable manifest: {exc}"))
            return audit
        for unit in manifest.get("units", []):
            name = unit.get("path")
            status = unit.get("status")
            if not name or name in seen:
                continue
            if status in ("completed", "resumed"):
                audit.files.append(FileAudit(
                    name=name, status="missing",
                    detail=f"manifest lists unit as {status} but the "
                           f"checkpoint is absent"))
    return audit
