"""The benchmark's tracer still finds every cotn name it wraps.

perfbench/tracer.py wraps cotn functions from outside and refuses to
install when a binding it requires is gone. It is installed in a fresh
interpreter here, so this test process is never patched.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_against_the_package(tmp_path):
    script = textwrap.dedent(f"""
        import sys
        sys.dont_write_bytecode = True
        sys.path.insert(0, {str(ROOT / "perfbench")!r})
        import tracer
        t = tracer.install("bindings-check", {str(tmp_path)!r})
        missing = [b for b in tracer.REQUIRED_BINDINGS if b not in t.bound]
        assert not missing, missing
        print(len(t.bound))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip()) > 0
