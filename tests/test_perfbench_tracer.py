"""The benchmark's tracer (`perfbench/tracing.py`) on the current sources.

It wraps functions of `arrfree` by name, so a deletion from `src` that
would break `perfbench/run.py --trace 1` fails here, and uninstalling must
put every original back.
"""

import importlib
import sys
from pathlib import Path

from arrfree.certify import certify, verify_certificate
from arrfree.fixtures import rank4_flag_example

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _arrfree_attributes():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "arrfree" or name.startswith("arrfree.")
        for attr, value in vars(mod).items()
    }


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    certify_mod = importlib.import_module("arrfree.certify")
    before = _arrfree_attributes()
    a = rank4_flag_example()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with tracer.root("op", ("op", 0)):
            payload = certify_mod.certify(a).to_dict()
        with tracer.root("verify", ("verify", 0)):
            certify_mod.verify_certificate(a, payload)
    finally:
        tracer.uninstall()
    summary = tracing.summarize(tracer)
    assert summary["certify.certify.calls"] == 1
    assert summary["certify.verify_certificate.calls"] == 1
    assert summary["certify.op_share"] > 0
    assert _arrfree_attributes() == before
    assert certify_mod.certify is certify and certify_mod.verify_certificate is verify_certificate
