"""One benchmark worker: a fresh interpreter that runs queries in a loop.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py SPEC.json RESULT.json

Both forms print ``ready`` once ``jreal`` is imported and its argument
parser is built: that is the set-up a session pays before its first query.
``--probe`` exits there.  Otherwise the worker runs the queries of SPEC one
after another (a closed loop with one client) until the time limit or the
query limit, each as one ``jreal.cli.main(argv)`` call in this process, so
the program's caches carry over between queries as they do in a session.
With ``"trace": true`` the layer functions are wrapped first (see
spans.py).

Ten times a second the loop also times ``reference()``, a fixed
pure-Python loop of a few milliseconds, outside any query, and notes how
many queries had run by then; the loop's mean tells how fast this host
runs Python during the run or a part of it (see check.py).  Untraced,
it also times a fresh ``--probe`` worker every two seconds, from its start
to ``ready``: set-up time sampled across the whole run, so that it meets
the same host speed as the queries.  Neither counts in the loop's wall
time or in any query's time.
"""

import sys

REF_EVERY_S = 0.1
PROBE_EVERY_S = 2.0


def _step(t):
    """One leftmost-outermost step of an S/K/I term of nested tuples, or
    None at a normal form."""
    if t[0] != "@":
        return None
    f, x = t[1], t[2]
    if f == ("I",):
        return x
    if f[0] == "@" and f[1] == ("K",):
        return f[2]
    if f[0] == "@" and f[1][0] == "@" and f[1][1] == ("S",):
        return ("@", ("@", f[1][2], x), ("@", f[2], x))
    r = _step(f)
    if r is not None:
        return ("@", r, x)
    r = _step(x)
    return None if r is None else ("@", f, r)


def reference() -> float:
    """Seconds a fixed pure-Python workload takes here and now: combinator
    reduction over nested tuples, which allocates, recurses and matches as
    the program's machine does, so that it meets a slow host as the
    program does.  The collector is off so that the size of the program's
    heap does not count."""
    import gc
    import time
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen = {}
        for i in range(1200):
            x = ("I",)
            for _ in range(i % 7):
                x = ("@", ("K",), x)
            t = ("@", ("@", ("@", ("S",), ("K",)), ("K",)), x)
            for k in range(50):
                seen[i % 97, k] = t
                t = _step(t)
                if t is None:
                    break
        return time.perf_counter() - t0
    finally:
        gc.enable()


def probe() -> float:
    """Seconds a fresh worker takes from its start until it is ready."""
    import subprocess
    import time
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, "--probe"],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed")
    return ready


def _setup():
    from jreal import cli
    cli.build_parser()
    return cli


def main(argv: list[str]) -> int:
    cli = _setup()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if argv == ["--probe"]:
        return 0

    import contextlib
    import io
    import json
    import resource
    import time

    from jreal import machine

    spec_path, out_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    queries = spec["queries"][:spec["max_queries"]]
    cache = machine.apply_cached
    tracer = None
    if spec["trace"]:
        from spans import Tracer  # beside this script, so on sys.path
        tracer = Tracer()
        tracer.install()
    info0 = cache.cache_info()
    records = []
    refs = [(0, reference()) for _ in range(3)]
    probes: list[float] = []
    aside_wall = 0.0
    deadline = spec["seconds"]
    clock = time.perf_counter
    start = last_ref = clock()
    last_probe = float("-inf")
    for argv_q in queries:
        now = clock()
        if now - start >= deadline:
            break
        due_ref = now - last_ref >= REF_EVERY_S
        due_probe = tracer is None and now - last_probe >= PROBE_EVERY_S
        if due_ref or due_probe:
            if due_ref:
                refs.append((len(records), reference()))
                last_ref = clock()
            if due_probe:
                probes.append(probe())
                last_probe = clock()
            aside_wall += clock() - now
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.StringIO()
        exc = None
        c0 = time.process_time()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv_q)
        except Exception as e:  # a crash is a measured outcome, not fatal
            rc = None
            exc = f"{type(e).__name__}: {e}"
        lat = clock() - t0
        cpu = time.process_time() - c0
        out.flush()
        records.append({"lat": lat, "cpu": cpu, "rc": rc, "exc": exc,
                        "out": out.buffer.getvalue().decode(),
                        "err": err.getvalue(),
                        "rss_mb": resource.getrusage(
                            resource.RUSAGE_SELF).ru_maxrss / 1024})
    wall = clock() - start - aside_wall
    info1 = cache.cache_info()
    result = {
        "records": records,
        "wall_s": wall,
        "refs_s": refs,
        "probes_s": probes,
        "cache_hits": info1.hits - info0.hits,
        "cache_misses": info1.misses - info0.misses,
        "trace": tracer.summary() if tracer else None,
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
