"""Read off the sources: the oracle and the expansion name no kind, the
expansion imports nothing from the Mellin layer and no private name from
the oracle, no module ``concurrent``."""

import ast
import re
from pathlib import Path

import cwtasym


def test_sources_keep_kinds_mellin_and_threads_out_of_their_layers():
    for path in sorted(Path(cwtasym.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        nodes = list(ast.walk(ast.parse(text)))
        modules = [a.name for n in nodes if isinstance(n, ast.Import) for a in n.names]
        modules += ["." * n.level + (n.module or "") for n in nodes
                    if isinstance(n, ast.ImportFrom)]
        assert "concurrent" not in {m.split(".")[0] for m in modules}, path.name
        if path.name in ("oracle.py", "expansion.py"):
            assert not re.search(r"(Wavelet|Signal)Kind", text), path.name
        assert path.name != "expansion.py" or ".mellin" not in modules


def test_expansion_takes_no_private_name_from_the_oracle():
    """The oracle is the one owner of the Fourier tail engine: the
    expansion imports only the oracle's public functions."""
    path = Path(cwtasym.__file__).parent / "expansion.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = [a.name for n in ast.walk(tree)
             if isinstance(n, ast.ImportFrom) and n.level == 1
             and n.module == "oracle" for a in n.names]
    assert names and not [name for name in names if name.startswith("_")]
