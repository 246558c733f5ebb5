"""One traced process: the program's own entry points with wrappers on.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python3 bench_e2e/traced.py SPANS.json cli suite
    python3 bench_e2e/traced.py SPANS.json cli analyze run.bin --json r.json
    python3 bench_e2e/traced.py SPANS.json serve STORE_DIR [--off]

``cli`` drives ``repro.cli.main([...])`` exactly as ``python -m repro``
would.  ``serve`` runs the same ``AnalysisService`` and ``make_server``
that ``repro serve`` runs, but with pool size 0, so jobs execute on the
shard thread of this process where the wrappers can time them.  That
placement differs from the untraced ``--pool-size 1`` configuration.
It prints the server URL, serves until stdin closes, then shuts down.
``--off`` skips installing the wrappers (the same placement, untraced).
The spans and counters go to SPANS.json when the process ends.
"""

from __future__ import annotations

import io
import sys
import threading

import tracer


def _import_cli():
    with tracer.span("cli.import"):
        import repro.cli
    modules = sum(1 for name in sys.modules if name.split(".")[0] == "repro")
    return repro.cli, modules


def run_cli(spans_path: str, argv) -> int:
    cli, modules = _import_cli()
    tracer.install()
    out = io.StringIO()
    code = cli.main(argv, out=out)
    sys.stdout.write(out.getvalue())
    tracer.dump(spans_path, {"exit_code": code, "import_modules": modules})
    return code


def run_serve(spans_path: str, store_dir: str, traced: bool) -> int:
    _, modules = _import_cli()
    if traced:
        tracer.install()
    from repro.service import AnalysisService, ServiceConfig, make_server

    service = AnalysisService(
        ServiceConfig(pool_size=0, port=0, fleet_dir=store_dir)
    ).start()
    server = make_server(service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    print(server.url, flush=True)
    sys.stdin.read()
    server.shutdown()
    service.shutdown(drain=False)
    server.server_close()
    tracer.dump(spans_path, {"exit_code": 0, "import_modules": modules})
    return 0


def main(argv) -> int:
    spans_path, mode, rest = argv[0], argv[1], argv[2:]
    if mode == "cli":
        return run_cli(spans_path, rest)
    if mode == "serve":
        return run_serve(spans_path, rest[0], "--off" not in rest)
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
