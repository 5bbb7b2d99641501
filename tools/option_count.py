"""Print the option count of the twofluid package.

    PYTHONPATH=src python3 tools/option_count.py

An option is a setting a caller may give or leave out. Three kinds count:

- api: a defaulted parameter of a public function or method, or a defaulted
  field of a public dataclass, in the ``twofluid`` modules (public means no
  leading underscore; a name imported from another module counts there);
- config: a config-file key, from ``config._SCALAR_KEYS`` and
  ``config._MODE_KEYS``;
- cli: a flag of ``cli.build_parser()``, once per subcommand that takes it
  (``--help`` aside).

It prints one line per option, ``<kind> <name>``, then one subtotal per
kind and the total. The script needs only the standard library and the
``twofluid`` package.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import pkgutil
import sys

import twofluid
from twofluid import cli, config


def _defaulted(fn, where: str) -> list[str]:
    params = inspect.signature(fn).parameters.values()
    return [f"{where}({p.name})" for p in params if p.default is not p.empty]


def api_options() -> list[str]:
    """Defaulted parameters and dataclass fields of the public names."""
    found = []
    for info in pkgutil.iter_modules(twofluid.__path__):
        module = importlib.import_module(f"twofluid.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            where = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                found += _defaulted(obj, where)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    found += [
                        f"{where}.{f.name}"
                        for f in dataclasses.fields(obj)
                        if f.default is not dataclasses.MISSING
                        or f.default_factory is not dataclasses.MISSING
                    ]
                for mname, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if not mname.startswith("_") and inspect.isfunction(member):
                        found += _defaulted(member, f"{where}.{mname}")
    return found


def config_options() -> list[str]:
    """Every key of every config section."""
    return [
        f"{section}.{key}"
        for table in (config._SCALAR_KEYS, config._MODE_KEYS)
        for section, keys in table.items()
        for key in keys
    ]


def cli_options() -> list[str]:
    """Every flag of every subcommand, --help aside."""
    found = []
    for action in cli.build_parser()._actions:
        if not isinstance(action, argparse._SubParsersAction):
            continue
        for command, sub in action.choices.items():
            found += [
                f"{command} {max(flag.option_strings, key=len)}"
                for flag in sub._actions
                if flag.option_strings and not isinstance(flag, argparse._HelpAction)
            ]
    return found


def options() -> dict[str, list[str]]:
    return {"api": api_options(), "config": config_options(), "cli": cli_options()}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    counted = options()
    for kind, names in counted.items():
        for name in names:
            print(f"{kind} {name}")
    for kind, names in counted.items():
        print(f"{kind}: {len(names)}")
    print(f"total: {sum(len(names) for names in counted.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
