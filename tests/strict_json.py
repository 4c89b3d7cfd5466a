"""Read a JSON document as standard JSON: NaN, Infinity and -Infinity,
which Python's json module reads and writes by default, are refused."""

import json
from pathlib import Path


def read_strict_json(path: Path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(Path(path).read_text(), parse_constant=reject)
