"""Sharp-interface and diffuse-interface tools for two-species droplet
energies on the plane and the unit torus: double-bubble geometry, optimal
mass partitions, periodic Green-function kernels, droplet placement, and a
semi-implicit phase-field relaxer with a command-line front end."""

__version__ = "0.1.0"
