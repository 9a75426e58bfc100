"""Build script: compiles the optional fast kernel extension.

The package is pure Python plus one optional Cython extension
(waldq._fastkern).  Without Cython the committed generated
src/waldq/_fastkern.c is compiled instead.  If the extension cannot be built
(no compiler, or WALDQ_NO_EXT=1), the install proceeds and the pure kernels
are used at runtime.  ``python setup.py build_ext --inplace`` puts it next
to the sources, where a checkout run with PYTHONPATH=src imports it.
"""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """build_ext that downgrades compilation failures to a warning."""

    def run(self):
        try:
            build_ext.run(self)
        except Exception as exc:  # platform without a toolchain
            print(f"warning: fast kernel build skipped ({exc})")

    def build_extension(self, ext):
        try:
            build_ext.build_extension(self, ext)
        except Exception as exc:
            print(f"warning: fast kernel build skipped ({exc})")


ext_modules = []
if not os.environ.get("WALDQ_NO_EXT"):
    try:
        from Cython.Build import cythonize
    except ImportError:  # build the committed generated C instead
        ext_modules = [Extension("waldq._fastkern", ["src/waldq/_fastkern.c"])]
    else:
        ext_modules = cythonize(
            [Extension("waldq._fastkern", ["src/waldq/_fastkern.pyx"])],
            language_level=3,
        )

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
