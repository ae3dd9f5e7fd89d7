"""Pressure counting and metric mean dimension estimation, desk scale.

Library layout:

* ``system_zoo``   -- computable systems, metrics, potentials
* ``orbit_engine`` -- orbit tables, Bowen distances, Birkhoff sums
* ``pressure``     -- separated/spanning weighted counts + sandwich checks
* ``mmdim``        -- growth rates, dimension proxies, property suites
* ``variational``  -- dictionaries, measure functional, max-min, roots
* ``simplex``      -- exact rational LPs and matrix games
* ``oracle``       -- exhaustive reference computations for tiny instances
* ``config``       -- the run config's keys, checks and defaults
* ``cli``          -- estimate | verify | variational | bowen

This module imports nothing: a module loads only the modules it imports.
"""
