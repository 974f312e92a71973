import importlib.util
from pathlib import Path


def load_fingerprint():
    path = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"
    spec = importlib.util.spec_from_file_location("fingerprint", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_graph_and_profile_digests_pinned():
    # model JSON, partition tables, split halves and cost profiles: unlike
    # the engine and attack groups, these two read the same under the
    # default OpenBLAS kernel and under OPENBLAS_CORETYPE Haswell,
    # SandyBridge and Prescott, so they can be pinned
    fingerprint = load_fingerprint()
    assert fingerprint._graph_group().hexdigest() == (
        "2eee2ce84a0c051badaa88b668d5ae430b6456021b71a548413e33ea498de4ec")
    assert fingerprint._profiles_group().hexdigest() == (
        "61fb21893876460ad800bd6beaf48bb796c8cc01e6afb8124b80a720ae4f817f")
