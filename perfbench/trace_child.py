"""Run one lfcheck CLI command with a span around each public call.

    python3 trace_child.py SPANS_OUT SPAWN_NS CMD_ID -- ARGV...

The real `lfcheck.cli.main` runs on ARGV.  Before it does, the names it
calls are replaced in the `lfcheck.cli` namespace by wrappers that record
(name, start, end, parent, command id) spans in memory, so the spans follow
the order in which cli.py makes the calls.  The spans, per-command counts
and the lfcheck path are written to SPANS_OUT as JSON when the command
ends, with the time they were written; the parent adds a `shutdown` span
from then until it reaps this process.  SPAWN_NS is the parent's
CLOCK_MONOTONIC reading just before it started this interpreter; the
`startup` span runs from there to the end of `import lfcheck.cli`.
"""

import json
import sys
import time

now = time.monotonic_ns  # CLOCK_MONOTONIC: the parent's clock too


class Tracer:
    def __init__(self, cmd_id):
        self.cmd_id = cmd_id
        self.spans = []
        self.stack = [0]
        self.counts = {}

    def add(self, name, start, end, parent):
        self.spans.append({"id": len(self.spans) + 1, "name": name, "start": start,
                           "end": end, "parent": parent, "cmd": self.cmd_id})

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans) + 1
        self.spans.append(None)  # reserve the id so children point at it
        parent = self.stack[-1]
        self.stack.append(sid)
        start = now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = now()
            self.stack.pop()
            self.spans[sid - 1] = {"id": sid, "name": name, "start": start,
                                   "end": end, "parent": parent, "cmd": self.cmd_id}

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n


def instrument(cli, tr):
    """Wrap every call cli.main makes into another module (and its own
    argument parsing, file digests and printing, so that the spans cover
    the command's time after import)."""
    from lfcheck.dseries import a_D_value
    from lfcheck.satake import satake_point

    def wrap(attr, name, counter=None):
        fn = getattr(cli, attr)

        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            result = tr.call(label, fn, *args, **kwargs)
            if counter:
                counter(result)
            return result

        setattr(cli, attr, wrapper)

    polys = {}

    def with_polys(attr, name, counter=None):
        # The first a_D_value builds the 55-term polynomial; doing it here
        # at the trivial point, where it must be 324, splits that cost out.
        fn = getattr(cli, attr)

        def wrapper(*args, **kwargs):
            v = tr.call("dseries.polys", a_D_value, satake_point(1, 1, 1, 1))
            polys["value"] = [v.real, v.imag]
            result = tr.call(name, fn, *args, **kwargs)
            if counter:
                counter(result)
            return result

        setattr(cli, attr, wrapper)

    parser_factory = cli._parser

    def parser():
        ap = tr.call("cli.argparse", parser_factory)
        parse = ap.parse_args
        ap.parse_args = lambda argv=None: tr.call("cli.argparse", parse, argv)
        return ap

    cli._parser = parser
    wrap("builtin_form", lambda name, xmax: f"ingest.builtin_{name}")
    wrap("load_eigenvalue_file", "ingest.load_table",
         lambda f: tr.count("ingest.table_rows", len(f.ap)))
    wrap("parse_char_spec", "ingest.char_spec")
    wrap("prepare_scan_points", "ingest.prepare_points",
         lambda r: (tr.count("ingest.primes", len(r[0])),
                    tr.count("ingest.skipped", len(r[1]))))
    with_polys("scan_positivity", "dseries.scan",
               lambda r: tr.count("dseries.points", r.checked))
    with_polys("verify_sos", "dseries.verify_sos")
    wrap("verify_case", "casebook.verify_case",
         lambda r: tr.count("casebook.verdicts", len(r.verdicts)))
    wrap("run_all", "casebook.run_all",
         lambda rs: tr.count("casebook.verdicts", sum(len(r.verdicts) for r in rs)))
    wrap("verify_plethysm_bridge", "casebook.bridge",
         lambda r: tr.count("casebook.verdicts", len(r.verdicts)))
    wrap("parse_expr", "exprlang.parse",
         lambda v: tr.count("exprlang.kinds", len(v.entries)))
    wrap("coeff_poly", "satake.coeff_poly",
         lambda p: tr.count("satake.terms", p.n_terms))
    wrap("parse_hyp_file", "cli.parse_hyp")
    wrap("decompose_under", "repalg.decompose")
    wrap("pole_order", "poles.pole_order")
    wrap("self_dual_abelian_entries", "poles.self_dual")
    wrap("digest", "report.digest")
    wrap("_file_digest", "cli.file_digest")
    for attr in ("render_text", "render_json"):
        wrap(attr, "report.render",
             lambda s: tr.count("report.bytes", len(s.encode())))
    # module globals shadow builtins, so cli's print() lands here
    cli.print = lambda *a, **k: tr.call("cli.print", print, *a, **k)
    return polys


def main():
    out_path, spawn_ns, cmd_id = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    if sys.argv[4] != "--":
        raise SystemExit("usage: trace_child.py SPANS_OUT SPAWN_NS CMD_ID -- ARGV...")
    argv = sys.argv[5:]
    import lfcheck
    import lfcheck.cli as cli

    tr = Tracer(cmd_id)
    tr.add("startup", spawn_ns, now(), 0)
    polys = tr.call("trace.instrument", instrument, cli, tr)
    try:
        code = tr.call("cli.main", cli.main, argv)
    except SystemExit as e:  # argparse rejects bad usage this way
        code = e.code if isinstance(e.code, int) else 2
    with open(out_path, "w") as fh:
        json.dump({"spans": tr.spans, "counts": tr.counts, "polys": polys.get("value"),
                   "lfcheck": lfcheck.__file__, "end": now()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
