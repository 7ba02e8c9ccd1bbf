"""Digest-field-drift checker: digest inputs may not change silently.

The on-disk result cache is keyed by ``config_digest``: a hash over every
:class:`~repro.simulation.config.SimulationConfig` field except the ones
``repro.exec.digest._EXCLUDED_FIELDS`` names, stamped with
``DIGEST_VERSION``.  Adding, removing or re-excluding a field changes what
the digest *means* — cached entries keyed under the old meaning silently
stop (or worse, keep) matching — so the contract is: any change to the
digest-relevant field set must land together with a ``DIGEST_VERSION``
bump (and regenerated golden pins).

This checker extracts the field set *statically* (AST only, no imports)
and compares it against the committed manifest
(``src/repro/analysis/digest_manifest.json``):

* fields drifted, version unchanged  →  **error** (the silent-drift case);
* version bumped                     →  the manifest must be regenerated in
  the same diff (``coopckpt lint --write-digest-manifest``), so a stale
  manifest is also an error;
* only the exclusion set changed     →  the digest payload is unchanged, so
  no bump is due (it would needlessly invalidate every cache); the stale
  manifest is an error until it is regenerated;
* manifest matches extraction        →  clean.

The manifest is committed next to the checker, which is what lets a code
review see the digest schema change as an explicit diff hunk.
"""

from __future__ import annotations

import ast
import json
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.analysis import policy
from repro.analysis.base import Checker, Finding, ModuleInfo, Project

__all__ = ["DigestDriftChecker", "extract_digest_schema", "write_manifest"]

#: The committed manifest, next to this package.
MANIFEST_PATH = Path(__file__).resolve().parent.parent / "digest_manifest.json"

#: The dataclass whose fields feed the digest, and the names the digest
#: module must define.
CONFIG_CLASS = "SimulationConfig"
VERSION_NAME = "DIGEST_VERSION"
EXCLUDED_NAME = "_EXCLUDED_FIELDS"


@dataclass(frozen=True)
class DigestSchema:
    """Statically extracted digest inputs."""

    version: str
    fields: tuple[str, ...]  #: digest-relevant config fields, sorted
    excluded: tuple[str, ...]  #: fields excluded from the digest, sorted

    def to_payload(self) -> dict:
        return {
            "comment": (
                "Digest-relevant SimulationConfig fields, extracted by "
                "`coopckpt lint` (rule digest-drift). Regenerate with "
                "`coopckpt lint --write-digest-manifest` -- only together "
                "with a DIGEST_VERSION bump when `fields` changed."
            ),
            "digest_version": self.version,
            "fields": list(self.fields),
            "excluded": list(self.excluded),
        }


def _config_fields(module: ModuleInfo) -> tuple[list[str], int]:
    """Field names of the config dataclass, plus the class line number."""
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == CONFIG_CLASS:
            names = [
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
            return names, node.lineno
    return [], 1


def _digest_constants(module: ModuleInfo) -> tuple[str | None, list[str] | None, int]:
    """(DIGEST_VERSION, excluded-field names, version line) from the digest
    module, or ``None`` components when not statically extractable."""
    version: str | None = None
    excluded: list[str] | None = None
    version_line = 1
    for node in module.tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if target.id == VERSION_NAME:
            if isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
                version = node.value.value
                version_line = node.lineno
        elif target.id == EXCLUDED_NAME:
            value = node.value
            if isinstance(value, ast.Call) and value.args:
                value = value.args[0]  # frozenset({...})
            if isinstance(value, (ast.Set, ast.List, ast.Tuple)):
                items = [
                    element.value
                    for element in value.elts
                    if isinstance(element, ast.Constant) and isinstance(element.value, str)
                ]
                if len(items) == len(value.elts):
                    excluded = items
    return version, excluded, version_line


def extract_digest_schema(project: Project) -> tuple[DigestSchema | None, list[Finding]]:
    """Extract the digest schema from the project, or explain why not."""
    problems: list[Finding] = []
    config = project.module(policy.DIGEST_CONFIG_MODULE)
    digest = project.module(policy.DIGEST_MODULE)
    if config is None or digest is None:
        missing = policy.DIGEST_CONFIG_MODULE if config is None else policy.DIGEST_MODULE
        problems.append(
            Finding(
                rule="digest-drift",
                path=".",
                line=1,
                col=0,
                message=f"cannot extract digest schema: module {missing} not found "
                "under the source root",
            )
        )
        return None, problems
    fields, class_line = _config_fields(config)
    if not fields:
        problems.append(
            Finding(
                rule="digest-drift",
                path=config.relpath,
                line=1,
                col=0,
                message=f"cannot find dataclass {CONFIG_CLASS} with annotated fields",
            )
        )
    version, excluded, version_line = _digest_constants(digest)
    if version is None:
        problems.append(
            Finding(
                rule="digest-drift",
                path=digest.relpath,
                line=1,
                col=0,
                message=f"cannot statically read {VERSION_NAME} "
                "(expected a string-constant assignment)",
            )
        )
    if excluded is None:
        problems.append(
            Finding(
                rule="digest-drift",
                path=digest.relpath,
                line=1,
                col=0,
                message=f"cannot statically read {EXCLUDED_NAME} "
                "(expected frozenset({...}) of string constants)",
            )
        )
    if problems or version is None or excluded is None or not fields:
        return None, problems
    ghost = sorted(set(excluded) - set(fields))
    if ghost:
        problems.append(
            Finding(
                rule="digest-drift",
                path=digest.relpath,
                line=version_line,
                col=0,
                message=f"{EXCLUDED_NAME} names non-existent config field(s): "
                f"{', '.join(ghost)} (stale exclusion after a rename?)",
            )
        )
        return None, problems
    relevant = tuple(sorted(set(fields) - set(excluded)))
    return DigestSchema(version=version, fields=relevant, excluded=tuple(sorted(excluded))), []


def write_manifest(schema: DigestSchema, path: Path | None = None) -> Path:
    """Write the manifest (used by ``--write-digest-manifest``)."""
    target = path or MANIFEST_PATH
    target.write_text(json.dumps(schema.to_payload(), indent=2) + "\n", encoding="utf-8")
    return target


class DigestDriftChecker(Checker):
    rule = "digest-drift"
    description = (
        "digest-relevant SimulationConfig fields match the committed "
        "manifest; changing them requires a DIGEST_VERSION bump in the "
        "same diff"
    )

    def __init__(self, manifest_path: Path | None = None) -> None:
        self.manifest_path = manifest_path or MANIFEST_PATH

    def check(self, project: Project) -> Iterable[Finding]:
        schema, problems = extract_digest_schema(project)
        if schema is None:
            return problems
        config = project.module(policy.DIGEST_CONFIG_MODULE)
        digest = project.module(policy.DIGEST_MODULE)
        assert config is not None and digest is not None  # extract() verified
        _, class_line = _config_fields(config)
        _, _, version_line = _digest_constants(digest)
        manifest_name = self.manifest_path.name
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
            recorded = DigestSchema(
                version=str(manifest["digest_version"]),
                fields=tuple(manifest["fields"]),
                excluded=tuple(manifest["excluded"]),
            )
        except FileNotFoundError:
            return [
                Finding(
                    rule="digest-drift",
                    path=digest.relpath,
                    line=version_line,
                    col=0,
                    message=f"digest manifest {manifest_name} is missing; "
                    "generate it with `coopckpt lint --write-digest-manifest` "
                    "and commit it",
                )
            ]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            return [
                Finding(
                    rule="digest-drift",
                    path=digest.relpath,
                    line=version_line,
                    col=0,
                    message=f"digest manifest {manifest_name} is unreadable "
                    f"({exc}); regenerate it with --write-digest-manifest",
                )
            ]
        if recorded.fields != schema.fields and recorded.version == schema.version:
            added = sorted(set(schema.fields) - set(recorded.fields))
            removed = sorted(set(recorded.fields) - set(schema.fields))
            details = []
            if added:
                details.append(f"now digest-relevant: {', '.join(added)}")
            if removed:
                details.append(f"no longer digest-relevant: {', '.join(removed)}")
            return [
                Finding(
                    rule="digest-drift",
                    path=config.relpath,
                    line=class_line,
                    col=0,
                    message="digest-relevant fields changed without a "
                    f"{VERSION_NAME} bump ({'; '.join(details)}); "
                    f"bump {VERSION_NAME}, regenerate the golden pins and the "
                    "manifest (--write-digest-manifest) in the same commit",
                )
            ]
        if recorded.version != schema.version:
            return [
                Finding(
                    rule="digest-drift",
                    path=digest.relpath,
                    line=version_line,
                    col=0,
                    message=f"{manifest_name} is stale (records digest v"
                    f"{recorded.version}, code says v{schema.version}); "
                    "regenerate it with `coopckpt lint --write-digest-manifest` "
                    "in the same commit as the version bump",
                )
            ]
        if recorded.excluded != schema.excluded:
            return [
                Finding(
                    rule="digest-drift",
                    path=digest.relpath,
                    line=version_line,
                    col=0,
                    message=f"{manifest_name} is stale (records excluded fields "
                    f"{', '.join(recorded.excluded) or 'none'}, code excludes "
                    f"{', '.join(schema.excluded) or 'none'}); the digest-relevant "
                    "fields are unchanged, so no version bump is due: regenerate "
                    "it with `coopckpt lint --write-digest-manifest`",
                )
            ]
        return []
