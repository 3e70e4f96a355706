"""Run ``repro serve`` with the benchmark's layer spans installed.

The wrappers go in before the worker pool starts; each worker process
writes its spans when it exits, and this process writes its own when
the daemon has stopped.

Usage::

    PYTHONPATH=src python3 perfbench/serve_daemon.py TRACE_DIR [repro serve options]
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main(argv):
    directory = os.path.abspath(argv[0])
    from repro.serve.cli import serve_main

    tracer.install_serve_layers(directory)
    try:
        return serve_main(argv[1:])
    finally:
        tracer.dump_to_dir(directory)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
