"""df0l is pure stdlib: importing the library and its CLI loads no
third-party module.

The import runs in a fresh interpreter started with -S, so that no site
hook (a .pth file of some installed package) loads modules of its own and
hides, or fakes, a dependency.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import df0l, df0l.cli
print("\\n".join(sorted({name.partition(".")[0] for name in sys.modules})))
"""


def test_imports_only_the_standard_library():
    result = subprocess.run([sys.executable, "-S", "-c", PROBE, os.path.abspath(SRC)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "df0l" in loaded
    assert loaded - sys.stdlib_module_names - {"df0l", "__main__"} == set()
