import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from hypothesis import settings

# No per-example deadline: a loaded machine must not turn a slow example into
# a failure.  A fixed example count keeps the run time steady.
settings.register_profile("streamopt", deadline=None, max_examples=100)
settings.load_profile("streamopt")
