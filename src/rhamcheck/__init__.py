"""Comparison maps between algebraic de Rham forms and singular cochains,
verified in exact rational arithmetic and certified quadrature."""
