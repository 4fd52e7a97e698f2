"""Every command ends any input, however sized, with an exit code, never a traceback.

One or two numbers of the bundled config, and the size flags, are scaled by
a power of ten from 10^-300 to 10^300, negated or set to 0.  Each command
runs on them in its own process under the address-space limit of
:func:`test_cli._limit_address_space`, so an array too large to hold fails
at once.  The exit code must be one of the four the CLI documents, and an
input error (exit 1) prints exactly one ``error: `` line.

Tier-1 runs a few derandomized examples.  A larger run selects a registered
profile: ``PERIODYN_INPUT_PROFILE=input-errors-ci pytest tests/test_input_property.py``.
No ``--workers`` flag is drawn, so no process pool starts.
"""

import json
import os

from hypothesis import given, settings, strategies as st

from periodyn.config import builtin_config_path

from test_cli import _run_limited

settings.register_profile("input-errors", max_examples=12, derandomize=True, deadline=None)
settings.register_profile("input-errors-ci", max_examples=300, derandomize=True, deadline=None)
PROFILE = settings.get_profile(os.environ.get("PERIODYN_INPUT_PROFILE", "input-errors"))

# the powers of ten a number is scaled by: one step either way, past every array and
# every count numpy takes, and to the ends of the float range
POWERS = (-300, -30, -12, -1, 1, 12, 30, 300)
EXIT_CODES = {0, 1, 2, 3}

with open(builtin_config_path(), encoding="utf-8") as fh:
    BUILTIN = json.load(fh)


def _number_paths(node, path=()):
    """The path of every number in a config document, as a tuple of keys and indices."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return [path]
    if not isinstance(node, (dict, list)):  # a name, or null
        return []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    return [p for key, child in items for p in _number_paths(child, path + (key,))]


PATHS = _number_paths(BUILTIN)


def _mutated(value, how):
    """``value`` times 10^how, negated ("neg") or 0 ("zero"); an int stays one where exact."""
    if how == "neg":
        return -value
    if how == "zero":
        return 0 * value
    if isinstance(value, int) and how >= 0:
        return value * 10 ** how
    return value * 10.0 ** how


MUTATIONS = st.sampled_from(POWERS + ("neg", "zero"))


def _flag(base):
    """A flag's value: its base mutated; None leaves the flag at its default."""
    return st.none() | MUTATIONS.map(lambda how: repr(_mutated(base, how)))


def _options(**flags):
    return [part for name, value in flags.items() if value is not None
            for part in (f"--{name.replace('_', '-')}", value)]


@PROFILE
@given(changes=st.lists(st.tuples(st.sampled_from(PATHS), MUTATIONS), min_size=1, max_size=2),
       grid=_flag(256), h=_flag(1e-2), t_end=_flag(0.5), rate_periods=_flag(1), draws=_flag(10),
       ensemble=st.integers(1, 4).flatmap(_flag), force=st.booleans())
def test_every_command_exits_with_a_documented_code(tmp_path_factory, changes, grid, h, t_end,
                                                    rate_periods, draws, ensemble, force):
    doc = json.loads(json.dumps(BUILTIN))
    for path, how in changes:
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = _mutated(node[last], how)
    config = tmp_path_factory.mktemp("mutated") / "model.json"
    config.write_text(json.dumps(doc))
    h = h or "0.01"  # simulate and find-period require --h, simulate --t-end
    commands = [
        ["certify", *_options(grid=grid)],
        ["simulate", *_options(grid=grid, h=h, t_end=t_end or "0.5"), *(["--force"] * force)],
        ["find-period", *_options(grid=grid, h=h, rate_periods=rate_periods)],
        ["compare", *_options(grid=grid, draws=draws, ensemble=ensemble)],
    ]
    for command, *options in commands:
        proc = _run_limited(command, str(config), *options)
        what = f"{command} {' '.join(options)}, {changes}: exit {proc.returncode}\n{proc.stderr}"
        assert proc.returncode in EXIT_CODES, what
        assert "Traceback" not in proc.stderr, what
        if proc.returncode == 1:
            errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
            assert len(errors) == 1, what
