"""Spans around calls into doublewell's public functions.

The program itself is not instrumented: `install` replaces each listed
module attribute by a wrapper that records a span (name, layer, start,
end, parent) in a `Tracer` and then calls the original.  Calls made
through the module attribute, which is how the package calls across
modules, are therefore seen.  `layer_metrics` turns the spans into the
per-layer figures.
"""

import functools
import json
import statistics
import time

# layer -> the public functions timed for it, as "module:attribute"
LAYERS = {
    "config.coeffs": ["config:RunConfig.build_coeffs"],
    "mesh.build": ["mesh:build_mesh", "mesh:refine"],
    "mesh.dump": ["mesh:dump_node_field", "mesh:dump_element_field"],
    "energy.phase_energies": ["energy:well_energies"],
    "subproblem.assemble": ["subproblem:assemble"],
    "subproblem.solve": ["subproblem:solve"],
    "subproblem.dual": ["subproblem:dual_variable",
                        "subproblem:duality_report"],
    "subproblem.analysis": ["subproblem:alpha_representations",
                            "subproblem:orthogonality_residual",
                            "subproblem:direct_energy"],
    "descent": ["descent:multistart", "descent:alternate",
                "descent:refine_continue", "descent:build_seed",
                "descent:laminate_seed", "descent:assign_phases"],
    "limits": ["limits:estimate_limits", "limits:partition_masks",
               "limits:gap_d"],
    "limits.pairing": ["limits:pairing_diagnostic"],
    "relaxation.section": ["relaxation:relaxation_section"],
    "relaxation.lower_bound": ["relaxation:dual_lower_bound"],
    "youngmeasure.estimate": ["youngmeasure:estimate_ym"],
    "youngmeasure.checks": ["youngmeasure:ym_energy_check",
                            "youngmeasure:second_moment_check",
                            "youngmeasure:dirac_check",
                            "youngmeasure:two_point_variance_check"],
    "pipeline.run": ["pipeline:run_experiment"],
    "pipeline.emit": ["pipeline:emit_outputs"],
    "pipeline.verify": ["pipeline:verify_run"],
}

# per-layer metric -> (layer, how the layer's spans are reduced)
METRICS = {
    "mesh.build_s": ("mesh.build", "total"),
    "config.coeffs_s": ("config.coeffs", "total"),
    "subproblem.solve_s": ("subproblem.solve", "total"),
    "subproblem.solve_calls": ("subproblem.solve", "calls"),
    "subproblem.assemble_s": ("subproblem.assemble", "total"),
    "subproblem.assemble_calls": ("subproblem.assemble", "calls"),
    "subproblem.dual_s": ("subproblem.dual", "total"),
    "subproblem.analysis_s": ("subproblem.analysis", "total"),
    "energy.phase_energies_s": ("energy.phase_energies", "total"),
    "descent.self_s": ("descent", "self"),
    "limits.s": ("limits", "total"),
    "limits.pairing_s": ("limits.pairing", "total"),
    "relaxation.lower_bound_s": ("relaxation.lower_bound", "total"),
    "relaxation.lower_bound_calls": ("relaxation.lower_bound", "calls"),
    "relaxation.section_self_s": ("relaxation.section", "self"),
    "youngmeasure.estimate_s": ("youngmeasure.estimate", "total"),
    "youngmeasure.checks_s": ("youngmeasure.checks", "total"),
    "pipeline.run_s": ("pipeline.run", "total"),
    "pipeline.emit_s": ("pipeline.emit", "total"),
    "pipeline.verify_s": ("pipeline.verify", "total"),
    "mesh.dump_s": ("mesh.dump", "total"),
}


def _solve_counts(args, result):
    """CG iterations and system size of one `subproblem.solve` call."""
    return {"iterations": result[1].iterations, "n_dof": args[0].n_dof}


NOTES = {"subproblem:solve": _solve_counts}


class Tracer:
    """Spans kept in memory, in the order the calls started.

    `overhead_s` sums the time each wrapper spends outside the call it
    wraps: the time tracing adds to the traced process."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.overhead_s = 0.0

    def wrap(self, name, layer, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = {"name": name, "layer": layer,
                    "parent": self._open[-1] if self._open else -1}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if note is not None:
                try:
                    span.update(note(args, result))
                except (AttributeError, IndexError, TypeError):
                    pass    # counts are absent; the call itself succeeded
            self.overhead_s += time.perf_counter() - entered \
                - (span["end"] - span["start"])
            return result
        return traced


def install(tracer, modules):
    """Wrap every function in LAYERS that exists; return the missing ones.

    `modules` maps a short module name ("mesh") to the imported module.
    """
    missing = []
    for layer, names in LAYERS.items():
        for name in names:
            mod_name, _, attr = name.partition(":")
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except AttributeError:
                missing.append(name)
                continue
            setattr(owner, leaf,
                    tracer.wrap(name, layer, fn, NOTES.get(name)))
    return missing


def layer_metrics(spans, missing):
    """Per-layer times and counts from one run's spans.

    A layer's total counts each span not nested in a span of the same
    layer; its self time subtracts from every span the spans directly
    inside it.  A layer with a missing function is left out.
    """
    gone = {layer for layer, names in LAYERS.items()
            if any(n in missing for n in names)}
    dur = [s["end"] - s["start"] for s in spans]
    inner = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] >= 0:
            inner[s["parent"]] += d

    def outermost(k):
        layer, up = spans[k]["layer"], spans[k]["parent"]
        while up >= 0:
            if spans[up]["layer"] == layer:
                return False
            up = spans[up]["parent"]
        return True

    top = [k for k in range(len(spans)) if outermost(k)]
    out = {}
    for metric, (layer, how) in METRICS.items():
        if layer in gone:
            continue
        if how == "self":
            out[metric] = sum(dur[k] - inner[k] for k, s in enumerate(spans)
                              if s["layer"] == layer)
        else:
            mine = [k for k in top if spans[k]["layer"] == layer]
            out[metric] = (len(mine) if how == "calls"
                           else sum(dur[k] for k in mine))
    solves = [s for s in spans if s["layer"] == "subproblem.solve"]
    if solves and all("iterations" in s for s in solves):
        finest = max(s["n_dof"] for s in solves)
        out["subproblem.cg_iterations"] = sum(s["iterations"] for s in solves)
        out["subproblem.cg_iterations_finest"] = max(
            s["iterations"] for s in solves if s["n_dof"] == finest)
    out["trace.spans"] = len(spans)
    return out


def load_spans(paths):
    """Spans of several trace files as one list, and the missing names."""
    spans, missing = [], set()
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        base = len(spans)
        spans += [dict(s, parent=s["parent"] + base if s["parent"] >= 0
                       else -1) for s in data["spans"]]
        missing.update(data["missing"])
    return spans, sorted(missing)


def median_metrics(rounds):
    """Median of each metric over the rounds that report it."""
    names = {k for r in rounds for k in r}
    return {k: statistics.median(r[k] for r in rounds if k in r)
            for k in sorted(names)}
