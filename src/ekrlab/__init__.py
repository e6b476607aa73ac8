"""ekrlab: exact-search verification of intersecting path families,
transversal numbers, and projective-plane constructions."""

__version__ = "0.1.0"

from .families import SetFamily, best_full_star, full_star, is_exactly_s_intersecting, \
    is_s_intersecting, is_s_star, is_sperner, is_triangular, stats
from .graphs import Graph, girth, make_cycle, make_random_tree, make_sun, make_theta
from .oracles import build_cycle_hm_family, build_sun_hm_family, \
    build_sun_star_family, hm_cycle_size, sun_allpaths_counts, sun_bound, theta_f, \
    theta_interior_star_size
from .paths import PathFamily, enumerate_paths_all, enumerate_paths_r, enumerate_paths_upto, \
    image_on_cycle, to_setfamily
from .projective import FieldSpec, build_pg, make_field, rotational_family, \
    sqrt_char2, triangular_char2, triangular_odd
from .solvers import Limits, SolveResult, enumerate_maximum_s_intersecting, \
    helly_triple_check, max_intersecting_sperner, max_nonstar_s_intersecting, \
    max_s_intersecting, max_triangular_intersecting, min_transversal
from .verdicts import Verdict, check_ekr, check_hm
