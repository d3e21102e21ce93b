"""Build script: compiles the kernel extension from the shipped, generated
``_kernels_cy.c`` when a C compiler is available, and degrades to the
pure-Python backend otherwise."""

from setuptools import Extension, setup

setup(ext_modules=[Extension("rlpower._kernels_cy",
                             ["src/rlpower/_kernels_cy.c"], optional=True)])
