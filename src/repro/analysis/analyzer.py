"""The multi-pass static artifact verifier (``repro lint``).

Runs every analysis pass over the packed tables the restorer reads
**without executing any forwarding** — no simulated process, no kernels,
no replay on device memory.  The passes, in order:

1. ``liveness``  — the (de)allocation events, checked as column masks and
   replayed by the allocator's array solver (§4.2);
2. ``pointers``  — indirect-index-pointer bounds and use-after-free (§4.1);
3. ``topology``  — dependency-edge sanity, DAG-ness, first-layer
   consistency (§5, §5.2);
4. ``kernels``   — name resolvability and trigger coverage against the
   model's kernel catalog (§5.1) — skipped with MED034 when the model is
   not in the zoo and no catalog is supplied;
5. ``coverage``  — capture marker, permanent-dump coverage, cross-batch
   layout consistency (§4.3).

Entry point: :func:`lint_artifact`, for any artifact (what the offline
phase, the store and ``repro lint x.medusa`` call).
"""

from __future__ import annotations

from repro.analysis.coverage import check_coverage
from repro.analysis.diagnostics import Diagnostic, LintReport
from repro.analysis.graphs import check_topology
from repro.analysis.kernels import check_kernels
from repro.analysis.liveness import analyze_replay
from repro.analysis.pointers import check_pointers
from repro.core.binfmt import LazyArtifact
from repro.errors import InvalidValueError


def lint_artifact(artifact: LazyArtifact, catalog=None) -> LintReport:
    """Statically verify one packed artifact; returns the full report.

    ``catalog`` is the model's :class:`LibraryCatalog`; when omitted it is
    built from the model zoo by name.  Artifacts for models outside the
    zoo get every catalog-independent pass plus a MED034 warning.
    """
    report = LintReport(model=artifact.model_name, gpu=artifact.gpu_name)

    liveness = analyze_replay(artifact)
    report.extend(liveness.diagnostics)
    report.passes.append("liveness")

    report.extend(check_pointers(artifact, liveness))
    report.passes.append("pointers")

    config = _zoo_config(artifact.model_name)
    report.extend(check_topology(
        artifact,
        max(config.capture_batch_sizes) if config is not None else None))
    report.passes.append("topology")

    if catalog is None:
        catalog = _zoo_catalog(config, artifact, report)
    if catalog is not None:
        report.extend(check_kernels(artifact, catalog))
        report.passes.append("kernels")

    report.extend(check_coverage(artifact, liveness))
    report.passes.append("coverage")

    report.stats.update({
        "allocations": float(liveness.alloc_index.size),
        "replay_events": float(liveness.num_events),
        "graphs": float(len(artifact.batches)),
        "nodes": float(artifact.total_nodes),
        "diagnostics": float(len(report.diagnostics)),
    })
    return report


def _zoo_config(model_name: str):
    """The zoo's config of ``model_name``; None for a model outside it."""
    from repro.models.zoo import get_model_config
    try:
        return get_model_config(model_name)
    except InvalidValueError:
        return None


def _zoo_catalog(config, artifact: LazyArtifact, report: LintReport):
    from repro.models.kernels_catalog import build_catalog
    if config is None:
        report.diagnostics.append(Diagnostic(
            "MED034",
            f"model {artifact.model_name!r} is not in the zoo and no "
            f"catalog was supplied; kernel-resolvability checks skipped",
            "model_name"))
        return None
    return build_catalog(config)

