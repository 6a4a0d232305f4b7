"""Every refusal the package makes derives from one root, `SchemoidsError`."""

import importlib
import inspect
from pathlib import Path

import schemoids
from schemoids import SchemoidsError

# __main__ runs the CLI on import
MODULES = [importlib.import_module(f"schemoids.{p.stem}")
           for p in sorted(Path(schemoids.__file__).parent.glob("*.py"))
           if p.stem not in ("__init__", "__main__")]


def exception_classes():
    return [obj for mod in MODULES for obj in vars(mod).values()
            if inspect.isclass(obj) and issubclass(obj, BaseException)
            and obj.__module__ == mod.__name__]


def test_every_exception_class_derives_from_the_root():
    classes = exception_classes()
    assert len(classes) > 40
    assert [c.__qualname__ for c in classes if not issubclass(c, SchemoidsError)] == []
    assert [c for c in classes if Exception in c.__bases__] == [SchemoidsError]


def test_the_witness_is_optional_and_kept():
    from schemoids.fincat import NonAssociative, NotAFunctor
    assert SchemoidsError("refused").witness is None and str(SchemoidsError("refused")) == "refused"
    err = NonAssociative("e", "f", "g", "a", "b")
    assert err.witness == ("e", "f", "g", "a", "b")
    assert str(err) == "('e'∘'f')∘'g' = 'a' but 'e'∘('f'∘'g') = 'b'"
    assert NotAFunctor("broken", witness=("f", "g", "h", "k")).witness == ("f", "g", "h", "k")
