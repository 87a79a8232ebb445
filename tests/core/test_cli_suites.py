"""The suite verbs take their options from the suites themselves.

``repro hotpath`` / ``ingress`` / ``sharding`` run the same code as
``python -m repro.bench.<suite>``; every option the suite's own parser
accepts must parse under the verb to the same value, and the verb must
dispatch to the suite's ``run``.
"""

import argparse

import pytest

from repro.bench import hotpath, ingress, sharding
from repro.cli import build_parser

SUITES = [("hotpath", hotpath), ("ingress", ingress),
          ("sharding", sharding)]


def _sample_argv(action: argparse.Action, option: str):
    """``[option]`` plus one value the action accepts."""
    if action.nargs == 0:
        return [option]
    if action.choices:
        return [option, str(list(action.choices)[-1])]
    if action.type in (int, float):
        return [option, "3"]
    return [option, "somewhere"]


def _options(module):
    for action in module.build_parser()._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        for option in action.option_strings:
            yield action, option


@pytest.mark.parametrize("verb,module", SUITES,
                         ids=[verb for verb, _ in SUITES])
def test_every_suite_option_parses_under_its_verb(verb, module):
    options = list(_options(module))
    assert options
    for action, option in options:
        argv = _sample_argv(action, option)
        expected = module.build_parser().parse_args(argv)
        parsed = build_parser().parse_args([verb] + argv)
        assert getattr(parsed, action.dest) == \
            getattr(expected, action.dest), option


@pytest.mark.parametrize("verb,module", SUITES,
                         ids=[verb for verb, _ in SUITES])
def test_verb_defaults_and_dispatch_are_the_suites(verb, module):
    parsed = vars(build_parser().parse_args([verb]))
    assert parsed.pop("func") is module.run
    assert parsed.pop("command") == verb
    assert parsed == vars(module.build_parser().parse_args([]))


def test_previously_rejected_flags_now_parse():
    parser = build_parser()
    args = parser.parse_args(["hotpath", "--reduced",
                              "--require-e2e-speedup", "1",
                              "--require-aes-speedup", "1"])
    assert args.require_e2e_speedup == args.require_aes_speedup == 1.0
    args = parser.parse_args(["sharding", "--unsharded-max", "100",
                              "--probes", "4", "--workload", "e80a2",
                              "--flat-ratio", "2", "--cliff-ratio", "4",
                              "--quiet"])
    assert (args.unsharded_max, args.probes, args.workload,
            args.flat_ratio, args.cliff_ratio, args.quiet) == \
        (100, 4, "e80a2", 2.0, 4.0, True)
