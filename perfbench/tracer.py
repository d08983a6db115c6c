"""Run one sbskit CLI invocation with every layer boundary traced.

Usage (from a checkout, with ``PYTHONPATH=src``)::

    python3 perfbench/tracer.py --out DIR --run-id ID -- <sbskit.cli arguments>

Every public function of the sbskit modules, and every public method of
the classes they define, is wrapped in a span recorder.  The wrapper is
rebound under every name other sbskit modules imported it as (``from .x
import f`` aliases and the CLI's runner table), so the package source is
left untouched.  Spans (name, start, end, parent, self time) are kept in
memory as flat arrays and written to ``DIR/spans.npz`` at exit, next to
per-name aggregates and counters in ``DIR/trace.json``.

Self time is a span's duration minus the durations of its child spans.
The recorder keeps one call stack, so it assumes the program runs on one
thread (the benchmark configs set ``threads: 1``).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import pathlib
import sys
import time
from array import array

MODULES = ("cli", "ensemble", "spin_model", "discrimination", "densmat", "sbs_core", "oracle", "verify")


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.self_col = array("d")
        self.stack: list[list] = []  # [span index, seconds spent in child spans]
        self.counters: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, on_call=None):
        """Return fn wrapped in a span named ``name``; on_call(args, kwargs) runs first."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self.stack
        name_col, parent_col = self.name_col, self.parent_col
        start_col, end_col, self_col = self.start_col, self.end_col, self.self_col

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(name_col)
            name_col.append(nid)
            parent_col.append(stack[-1][0] if stack else -1)
            start_col.append(0.0)
            end_col.append(0.0)
            self_col.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_col[idx] = t0
                end_col[idx] = t1
                self_col[idx] = (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0

        return traced

    def aggregates(self) -> dict:
        """Per span name: calls, summed span and self seconds, p50/p75 span."""
        import numpy as np

        names = np.frombuffer(self.name_col, dtype=np.int32)
        dur = np.frombuffer(self.end_col) - np.frombuffer(self.start_col)
        busy = np.frombuffer(self.self_col)
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            calls = int(np.count_nonzero(mask))
            if not calls:
                out[name] = {"calls": 0, "span_s": 0.0, "busy_s": 0.0, "p50_s": 0.0, "p75_s": 0.0}
                continue
            d = dur[mask]
            p50, p75 = np.percentile(d, [50, 75])
            out[name] = {
                "calls": calls,
                "span_s": float(np.sum(d)),
                "busy_s": float(np.sum(busy[mask])),
                "p50_s": float(p50),
                "p75_s": float(p75),
            }
        return out

    def save_spans(self, path: pathlib.Path, run_id: str) -> None:
        import numpy as np

        np.savez(
            path,
            run_id=np.array(run_id),
            names=np.array(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            parent=np.frombuffer(self.parent_col, dtype=np.int32),
            start=np.frombuffer(self.start_col),
            end=np.frombuffer(self.end_col),
            self_s=np.frombuffer(self.self_col),
        )


def _fig1_cells(tracer: Tracer, signature: inspect.Signature):
    """Counts samples x spins x tau points for each fig1_node call."""
    tracer.count("ensemble.cells", 0)  # every hook's counter starts at 0 once installed

    def on_call(args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        tracer.count("ensemble.cells", int(bound["samples"]) * int(bound["n_spins"]) * int(bound["tau_points"]))

    return on_call


def _instances_by_dimension(tracer: Tracer, signature: inspect.Signature):
    """Counts oracle instances by central dimension (d_s = 2 feeds qubit_families)."""
    tracer.count("oracle.instances.d2", 0)

    def on_call(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.count(f"oracle.instances.d{bound.arguments['d_s']}")

    return on_call


def _write_bytes(tracer: Tracer):
    tracer.count("cli.write.bytes", 0)

    def on_call(args, kwargs):
        data = args[1] if len(args) > 1 else kwargs["data"]
        tracer.count("cli.write.bytes", len(data.encode("utf-8")))

    return on_call


CALL_HOOKS = {"ensemble.fig1_node": _fig1_cells, "oracle.random_instance": _instances_by_dimension}


def instrument(tracer: Tracer) -> dict:
    """Wrap the sbskit layers in place; returns the modules by short name."""
    modules = {short: importlib.import_module(f"sbskit.{short}") for short in MODULES}
    replaced = {}  # id(original) -> wrapper
    for short, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                hook = CALL_HOOKS.get(f"{short}.{name}")
                on_call = hook(tracer, inspect.signature(obj)) if hook else None
                wrapper = tracer.wrap(f"{short}.{name}", obj, on_call)
                setattr(mod, name, wrapper)
                replaced[id(obj)] = wrapper
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(member):
                        setattr(obj, attr, tracer.wrap(f"{short}.{name}.{attr}", member))
    # rebind `from .x import f` aliases and function tables in every module
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if inspect.isfunction(val) and id(val) in replaced:
                        obj[key] = replaced[id(val)]

    spin_params = modules["spin_model"].SpinParams
    post_init = spin_params.__post_init__

    def counted_post_init(self):
        tracer.count("spin_model.spinparams_built")
        post_init(self)

    spin_params.__post_init__ = counted_post_init
    tracer.count("spin_model.spinparams_built", 0)
    pathlib.Path.write_text = tracer.wrap("io.write_text", pathlib.Path.write_text, _write_bytes(tracer))
    return modules


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for trace.json and spans.npz")
    parser.add_argument("--run-id", required=True, help="identifier stored with the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="arguments for sbskit.cli after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    write_text = pathlib.Path.write_text
    modules = instrument(tracer)
    started = time.perf_counter()
    try:
        status = modules["cli"].main(cli_args)
    finally:
        pathlib.Path.write_text = write_text
    elapsed = time.perf_counter() - started

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer.save_spans(out / "spans.npz", args.run_id)
    record = {
        "run_id": args.run_id,
        "exit_status": status,
        "main_s": elapsed,
        "spans": len(tracer.name_col),
        "counters": tracer.counters,
        "names": tracer.aggregates(),
    }
    (out / "trace.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
