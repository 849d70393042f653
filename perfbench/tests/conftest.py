import sys
from pathlib import Path

# The benchmark imports the library from the checkout's src/ and its own
# modules from perfbench/.
_PERFBENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_PERFBENCH.parent / "src"), str(_PERFBENCH)]
