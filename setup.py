from setuptools import Extension, setup

# The compiled scan kernels need only a C compiler; if their build fails, the
# package installs with the pure-Python backend.
ext_modules = [Extension("glmn_weights._speedups", ["src/glmn_weights/_speedups.c"], optional=True)]

setup(ext_modules=ext_modules)
