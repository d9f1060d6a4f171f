"""Lattice packings, coverings, and decoders for limited-magnitude error
balls over Z^n."""

from .algebra import (
    FieldSpec,
    GroupSpec,
    find_primitive_polynomial,
    group_add,
    group_neg,
    scalar_mul,
)
from .ball import BallSpec, ball_contains, ball_images, ball_size, enumerate_ball
from .codec import (
    ModPDecoderContext,
    S2DecoderContext,
    build_syndrome_decoder,
    decode_mod_p,
    decode_s2,
)
from .constructions import (
    BtSet,
    LinearCode,
    SidonParams,
    S2Data,
    bch_code,
    behrend_ruzsa_splitter,
    behrend_sphere_sets,
    bose_chowla_s1,
    bose_chowla_s2,
    bt_pm1_splitter,
    bt_shift_to_splitter,
    code_lattice,
    covering_base_split,
    hamming_covering_baseline,
    is_bt_set,
    is_kfold_sidon,
    kfold_sidon_splitter,
    product_splitter,
    sample_lambda_splitter,
    search_bt_set,
    search_kfold_sidon,
)
from .errors import DomainError, MagballError, OracleDisagreement, ResourceLimitError
from .lattice import (
    LatticeBasis,
    density,
    hermite_normal_form,
    kernel_lattice,
    lattice_contains,
    verify_covering_geometric,
    verify_packing_geometric,
)
from .splitting import (
    MagnitudeSet,
    SplitReport,
    SplitterSet,
    SplitWitness,
    check_complete_split,
    check_partial_split,
    multiplicity_histogram,
    phi,
)

__version__ = "0.1.0"
