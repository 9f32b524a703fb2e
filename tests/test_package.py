"""The package's export list. ``__all__`` is what ``from lqplan import *``
binds and what ``help(lqplan)`` documents: pydoc lists none of the
package's classes or functions without it, as they live in submodules."""

from __future__ import annotations

import pydoc
import types

import lqplan

PUBLIC = [  # the names the package's imports bound, but no submodule
    name for name, value in vars(lqplan).items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]


def test_all_is_sorted_unique_and_public():
    assert lqplan.__all__ == sorted(set(lqplan.__all__))
    assert not [name for name in lqplan.__all__ if name.startswith("_")]
    assert not [name for name in lqplan.__all__ if isinstance(getattr(lqplan, name), types.ModuleType)]
    assert lqplan.__all__ == sorted(PUBLIC)


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from lqplan import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)


def test_help_documents_every_public_name():
    page = pydoc.render_doc(lqplan, renderer=pydoc.plaintext)
    headers = ("class {}(", "\n    {}(", "\n    {} = ")  # a class, a function, a module-level value
    missing = [name for name in PUBLIC if not any(h.format(name) in page for h in headers)]
    assert not missing
