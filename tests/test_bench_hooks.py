"""Every name the benchmark hooks still exists in the package.

``bench/run.py`` reads its per-layer metrics through hooks on names such as
``fasttog.engine:detect``. A hook whose target is gone is reported as absent
and its metrics are left out of the run, so a refactor that drops a hooked
name would otherwise lose them silently. This test installs and removes every
hook of the benchmark's ``LayerProbe``, for both gateway targets.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402
from tracing import Hooks, _resolve  # noqa: E402

# the in-process stand-in model of walk workloads, and the HTTP client of eval ones
GATEWAY_TARGETS = ("oracle:OracleGateway.generate", "fasttog.gateway:ChatEndpoint.generate")


def _current(target):
    owner, attr = _resolve(target)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@pytest.mark.parametrize("gateway_target", GATEWAY_TARGETS)
def test_every_bench_hook_installs_and_comes_off(gateway_target):
    probe = run.LayerProbe(gateway_target, stand_in=gateway_target.startswith("oracle:"))
    targets = [hook.target for hook in probe.hooks]
    assert gateway_target in targets and len(set(targets)) == len(targets)
    before = {target: _current(target) for target in targets}
    with Hooks(probe.recorder).install(probe.hooks) as hooks:
        assert hooks.absent == []
        assert all(_current(target) is not before[target] for target in targets)
    assert all(_current(target) is before[target] for target in targets)
