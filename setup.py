"""Build script; compiles the optional mining kernel extension.

The package works without the extension (a pure-Python kernel is selected
at import time), so any build failure here downgrades to a warning. With
Cython the extension is generated from _growth_cy.pyx; without it, the
tracked _growth_cy.c (generated from that file) is compiled as it is.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            warnings.warn(f"skipping compiled kernel: {exc}")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"skipping compiled kernel {ext.name}: {exc}")


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        return [
            Extension(
                "habitminer.mining._growth_cy", ["src/habitminer/mining/_growth_cy.c"]
            )
        ]
    return cythonize(
        ["src/habitminer/mining/_growth_cy.pyx"], language_level="3"
    )


setup(ext_modules=extensions(), cmdclass={"build_ext": OptionalBuildExt})
