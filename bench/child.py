"""Fresh-process probe for set-up time and peak memory.

Run with ``PYTHONPATH=src``.  Prints ``ready`` as soon as
``dynsparse.cli`` is imported, so the parent can time the set-up from
process start.  Given a JSON argv, it then runs that one subcommand and
prints a JSON line with the exit code, peak RSS and the output hashes
from the run's manifest.
"""

import sys

import dynsparse.cli

sys.stdout.write("ready\n")
sys.stdout.flush()

if len(sys.argv) > 1:
    import contextlib
    import io
    import json
    import resource
    from pathlib import Path

    argv = json.loads(sys.argv[1])
    with contextlib.redirect_stdout(io.StringIO()):
        code = dynsparse.cli.run_command(argv)
    manifest = Path(sys.argv[2]) / "manifest.json"
    outputs = json.loads(manifest.read_text())["outputs"] if manifest.exists() else {}
    print(json.dumps({
        "code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outputs": outputs,
    }))
