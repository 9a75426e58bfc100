"""Build script: compiles the fast kernel extension from the committed C.

The package is pure Python plus one extension, waldq._fastkern, compiled from
the committed src/waldq/_fastkern.c (generated by Cython from
_fastkern.pyx; the README says how to regenerate it).  The build needs only a
C compiler and the Python headers.  If it fails (no compiler), the install
proceeds and the pure kernels are used at runtime.
``python setup.py build_ext --inplace`` puts the extension next to the
sources, where a checkout run with PYTHONPATH=src imports it.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """build_ext that downgrades compilation failures to a warning."""

    def run(self):
        try:
            build_ext.run(self)
        except Exception as exc:  # platform without a toolchain
            print(f"warning: fast kernel build skipped ({exc})")


setup(
    ext_modules=[Extension("waldq._fastkern", ["src/waldq/_fastkern.c"])],
    cmdclass={"build_ext": optional_build_ext},
)
