"""List the settable parameters of ``src/otflow`` that no call sets.

For every function and method defined in ``src/otflow``, a parameter is
*settable* when it has a default value or is a ``**`` catch-all. A field of
a ``@dataclass`` is a parameter of the generated ``__init__``, so a field
with a default (or ``default_factory``) is settable too, unless it is
declared ``field(init=False)``. This scan reads every call in ``src``,
``tests``, ``demos``, ``perfbench`` and ``tools`` and prints each settable
parameter that no call sets, one per line:

    <module>:<line>  <function>(<parameter>)

A call matches a function by name: ``f(...)``, ``obj.f(...)`` and
``Module.f(...)`` all count as calls to every function named ``f``, and a
call to a class name, or to ``cls`` in its body, counts as a call to its
``__init__`` (for a dataclass, the generated one). A call through a package
class, ``Class.f(obj, ...)`` or ``module.Class.f(obj, ...)``, passes ``obj``
as the ``self`` of an instance method ``f``. A call sets a parameter by
keyword or by position; a ``*args`` argument counts as setting every
positional parameter and a ``**kwargs`` argument every parameter. A ``**``
parameter is set by a keyword that names no other parameter. Matching by
name over-counts calls, so no call written out in those directories sets a
listed parameter. Run from the root of a checkout:

    python3 tools/unset_params.py
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "otflow"
CALLER_DIRS = ("src", "tests", "demos", "perfbench", "tools")


def python_files(base):
    return sorted(p for p in base.rglob("*.py") if "__pycache__" not in p.parts)


def definitions():
    """(path, def node, is_method, decorator names, owner class name) for
    every function in the package, nested ones included."""
    out = []
    for path in python_files(PACKAGE):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                elif isinstance(child, ast.FunctionDef):
                    decorators = {d.id for d in child.decorator_list
                                  if isinstance(d, ast.Name)}
                    out.append((path, child, owner is not None, decorators, owner))
                    visit(child, None)
                else:
                    visit(child, owner)

        visit(tree, None)
    return out


def _name(node):
    """The name a decorator or a called function is written with."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_dataclass(cls):
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def dataclass_fields():
    """(path, class node, [(positional index, field node)] of the settable
    fields, names of all ``__init__`` fields) for every dataclass of the
    package. A ``field(...)`` default is settable when it gives ``default``
    or ``default_factory``; ``init=False`` takes it out of ``__init__``."""
    out = []
    for path in python_files(PACKAGE):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            found, names = [], set()
            for node in cls.body:
                if not (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)):
                    continue
                value = node.value
                has_default = value is not None
                if isinstance(value, ast.Call) and _name(value.func) == "field":
                    kws = {kw.arg: kw.value for kw in value.keywords}
                    init = kws.get("init")
                    if isinstance(init, ast.Constant) and init.value is False:
                        continue
                    has_default = "default" in kws or "default_factory" in kws
                if has_default:
                    found.append((len(names), node))
                names.add(node.target.id)
            out.append((path, cls, found, names))
    return out


def calls():
    """Every call in the caller directories, keyed by the called name; a
    ``cls(...)`` call inside a class body is keyed by the class's name."""
    by_name = defaultdict(list)

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = _name(child.func)
                if name == "cls" and owner is not None:
                    name = owner
                if name is not None:
                    by_name[name].append(child)
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    for sub in CALLER_DIRS:
        for path in python_files(ROOT / sub):
            visit(ast.parse(path.read_text(), str(path)), None)
    return by_name


def settable(fn, bound):
    """(positional index or None, name) of each defaulted or ``**`` parameter;
    the index counts from the first argument a caller passes."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if bound else 0
    out = []
    first_default = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional):
        if i >= first_default and i >= skip:
            out.append((i - skip, arg.arg))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            out.append((None, arg.arg))
    if args.kwarg is not None:
        out.append((None, "**" + args.kwarg.arg))
    return out


def through_class(call, classes):
    """Whether ``call`` is written ``Class.f(...)`` or ``module.Class.f(...)``
    for a package class."""
    func = call.func
    return isinstance(func, ast.Attribute) and _name(func.value) in classes


def is_set(call, index, name, named, shift=0):
    """Whether ``call`` can set the parameter ``name`` at ``index``; ``shift``
    is 1 when the call's first positional argument is ``self``."""
    if any(kw.arg is None for kw in call.keywords):          # f(**kw)
        return True
    if name.startswith("**"):
        return any(kw.arg not in named for kw in call.keywords)
    if any(kw.arg == name for kw in call.keywords):
        return True
    if index is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):   # f(*args)
        return True
    return index + shift < len(call.args)


def unset_parameters():
    by_name = calls()
    defs = definitions()
    classes = {owner for *_, owner in defs if owner is not None}
    found = []
    for path, fn, is_method, decorators, owner in defs:
        bound = is_method and "staticmethod" not in decorators
        instance = bound and "classmethod" not in decorators
        callers = list(by_name.get(fn.name, ()))
        if fn.name == "__init__" and owner is not None:
            callers += by_name.get(owner, ())
        a = fn.args
        named = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
        for index, name in settable(fn, bound):
            if not any(is_set(c, index, name, named,
                              int(instance and through_class(c, classes)))
                       for c in callers):
                rel = path.relative_to(ROOT / "src").as_posix()
                label = f"{owner}.{fn.name}" if owner else fn.name
                found.append(f"{rel}:{fn.lineno}  {label}({name})")
    for path, cls, settable_fields, named in dataclass_fields():
        for index, node in settable_fields:
            name = node.target.id
            if not any(is_set(c, index, name, named)
                       for c in by_name.get(cls.name, ())):
                rel = path.relative_to(ROOT / "src").as_posix()
                found.append(f"{rel}:{node.lineno}  {cls.name}({name})")
    return found


def main():
    found = unset_parameters()
    for line in found:
        print(line)
    print(f"{len(found)} settable parameters that no call sets", file=sys.stderr)


if __name__ == "__main__":
    main()
