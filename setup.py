"""Build script: compiles the optional elimination speedup extension.

The package is fully functional without the extension (a pure-Python
backend is selected at import time), so a failed compile only costs speed.
"""

import warnings

from setuptools import setup
from setuptools.command.build_ext import build_ext


def _extensions():
    """The compiled kernel: cythonized from the .pyx when Cython is present,
    otherwise compiled from the shipped, already generated .cpp."""
    try:
        import numpy
    except ImportError:
        warnings.warn("numpy unavailable; building without the compiled kernel")
        return []
    from setuptools import Extension

    try:
        from Cython.Build import cythonize
    except ImportError:
        cythonize = None
    source = "_speedups.pyx" if cythonize else "_speedups.cpp"
    ext = Extension(
        "u4class.kernels._speedups",
        sources=[f"src/u4class/kernels/{source}"],
        include_dirs=[numpy.get_include()],
        define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
        language="c++",
    )
    return cythonize([ext], language_level=3) if cythonize else [ext]


class OptionalBuildExt(build_ext):
    """Degrade to a pure-Python install if the extension fails to compile."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001
            warnings.warn(f"compiled kernel skipped: {exc}")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            warnings.warn(f"compiled kernel skipped: {exc}")


setup(ext_modules=_extensions(), cmdclass={"build_ext": OptionalBuildExt})
