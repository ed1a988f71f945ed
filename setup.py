import os

from setuptools import Extension, setup

# The compiled scan kernels need only a C compiler; if their build fails, the
# package installs with the pure-Python backend.  GLMN_WEIGHTS_NO_EXT skips it.
ext_modules = [] if os.environ.get("GLMN_WEIGHTS_NO_EXT") else [
    Extension("glmn_weights._speedups", ["src/glmn_weights/_speedups.c"], optional=True)
]

setup(ext_modules=ext_modules)
