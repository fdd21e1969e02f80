import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles and helpers modules

FIXTURES_DIR = Path(__file__).parent / "fixtures"
