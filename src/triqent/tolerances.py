"""Every numeric threshold of the package, each with the quantity it tests.

Each module imports the names it uses (``from .tolerances import NAME``), so
``module.NAME`` resolves, and patching it in that module takes effect there.
Nothing here is settable at run time.

The note above each constant reads "quantity; error model": what the
threshold is compared with, and whether its scale is absolute, relative to
something, or the square root of rounding.  A row that a ROADMAP item will
replace with a scale-aware rule names that item.  Rows that share a value
test different quantities and stay apart; the README lists the same table.
"""

# --- qcore: states, unitaries, reductions ---------------------------------

# |norm - 1| of a state above which its amplitudes are divided by their norm; absolute, rounding of a unit vector.
ATOL_NORM = 1e-12
# |norm - 1| of a state above which it is refused as not normalized; absolute.
ATOL_UNNORMALIZED = 1e-9
# ||U^dag U - 1|| (Frobenius) of a local-unitary factor above which it is refused; absolute.
ATOL_UNITARY = 1e-9
# ||U^dag U - 1|| (Frobenius) of a controlled gate's unitary above which it is refused; absolute, rounding.
ATOL_GATE_UNITARY = 1e-12
# ||rho - rho^dag|| (Frobenius) of a density matrix above which it is refused; absolute.
ATOL_HERMITIAN = 1e-10
# |tr rho - 1| of a density matrix above which it is refused; absolute.
ATOL_TRACE = 1e-10
# Depth below 0 of a density matrix's lowest eigenvalue beyond which it is refused; absolute.
ATOL_NEGATIVE = 1e-10
# Depth below 0 of a spectrum entry that an entropy counts as 0 (deeper raises); absolute.
EIG_CLIP = 1e-10
# Lowest single-qubit marginal eigenvalue above which every cut is entangled (genuine); absolute.
TOL_PRODUCT = 1e-8

# --- bipartite: entanglement of formation, 1|23 split, tau ----------------

# Excess of a concurrence outside [0, 1] that eof clips instead of refusing; absolute.
_SLACK_CONCURRENCE = 1e-9
# Excess of an entropy outside [0, 1] that the entropy inverses clip instead of refusing; absolute, rounding.
_SLACK_UNIT = 1e-12
# |p - 1/2| of the 1|23 Schmidt weight at or below which the split is flagged degenerate; absolute.
TOL_DEGENERATE = 1e-9
# |p - 1/2| at or below which p is put on 1/2 and the eigenbasis rebased; absolute, rounding of p.
_SNAP_DEGENERATE = 1e-12
# Tau overlap (c0, c1 or |ctilde|) at or below which it counts as zero; absolute, raised to the Schmidt noise floor.
TOL_OVERLAP = 1e-10
# Cap of the Schmidt noise floor 32 eps / |2p - 1|; absolute (the floor itself is relative to the Schmidt gap).
_CAP_NOISE_FLOOR = 1e-4
# |c| of a Schmidt vector's self-overlap at or below which its phase is undefined; absolute, raised to the noise floor off p = 1/2.
_TOL_SELF_OVERLAP = 1e-12
# |amplitude| of a unit vector above which it counts as the first nonzero one, which fixes the phase; absolute.
_TOL_AMPLITUDE = 1e-12
# |tau_00| and |tau_11| of a degenerate split at or below which tau is already zero-diagonal; absolute.
_TOL_ZERO_DIAG = 1e-12
# Gap s1 - s2 of tau's singular values at or below which Takagi takes the eigenbasis branch; relative to max(s1, 1).
_TOL_TAKAGI_GAP = 1e-12
# |entry| of a Takagi column's largest entry above which its phase is removed; absolute, rounding of a unit column.
_TOL_TAKAGI_PHASE = 1e-14
# |<psi_k|row_k>| above which the witness aligns the phase of a Schmidt row; absolute, rounding of unit vectors.
_TOL_ALIGN_PHASE = 1e-14

# --- canonical: two-branch decomposition and its parameter orbit ----------

# a - b of the branch state psi_s at or below which it is maximally entangled; absolute.
TOL_MAXENT = 1e-9
# |cos arg ctilde| at or below which ctilde lies on the imaginary axis (omega case ii); absolute.
TOL_CASE = 1e-10
# Concurrence gap of the two measurement branches, the cross-check; absolute.
_TOL_BRANCH = 1e-9
# Distance of E1 outside [E(C23), E(Ca23)], the cross-check; absolute.
_TOL_INTERVAL = 1e-9
# |u00| or |u01| of an SU(2) at or below which all of its ZYZ phase goes into alpha; absolute.
_TOL_EULER = 1e-12
# sin theta of an SU(2) at or below which it is +-1 and needs no diagonalising frame; absolute.
_TOL_SU2_DIAGONAL = 1e-12
# Distance above -pi/2 within which the half-open reduction puts an angle on pi/2; absolute, rounding of pi.
_SLACK_HALF_OPEN = 1e-12
# Distance of a reduced angle from the gauge edge 0 or pi/2 below which it is put on the edge; absolute.
_SNAP_GAUGE = 1e-9
# |beta| or ||beta| - pi/2| at or below which the gauge fold combines alpha and gamma; absolute.
_FOLD_TOL = 1e-11
# Scale of the orbit key, each angle rounded to 10 decimals; absolute, 1e-10 on angles.
_ORBIT_KEY_SCALE = 1e10
# Orbit representative: |beta|, |beta'| below which they are 0, and the slack of beta, beta' >= 0 and |alpha| >= |gamma|; absolute.
_TOL_REPRESENTATIVE = 1e-12
# Slack of the canonical range: a >= 1/sqrt(2) and each angle inside its interval; absolute.
_SLACK_RANGE = 1e-9
# Distance below 1 that a must keep, so that b stays off the product edge; absolute.
_MARGIN_PRODUCT = 1e-12

# --- classification: standard form, J invariants, CLU verdict -------------

# Three-tangle at or below which a CLU state is in the W class; absolute (sqrt(eps) at a double root: ROADMAP item 11).
TOL_TANGLE = 1e-9
# |J6| at or below which a CLU state is class 4; absolute (J6's error is relative to |J6|: ROADMAP items 1 and 8).
TOL_J6 = 1e-9
# Difference of two J invariants at or below which they match; absolute (J6's error is relative: ROADMAP items 1 and 8).
TOL_INV = 1e-8
# |det1|, |mixed| or |det0| of the root quadratic above which that coefficient sets the root case; absolute.
_TOL_ROOT = 1e-12
# |T'_ij| of a standard-form amplitude above which it is present and has a phase; absolute (sqrt(eps) at a double root: ROADMAP item 11).
_TOL_ZERO = 1e-10
# Second singular value of the rotated T0 at or below which a root is admissible; absolute.
_TOL_ROOT_RANK = 1e-9
# Distance of a root's phi outside [0, pi] within which it is moved into it; absolute.
_TOL_PHI = 1e-9
# Distance of J1..J4 from the marginal purities and the 3-tangle, the cross-check; absolute.
_TOL_PURITY_TANGLE = 1e-10
# The four CLU criteria scale with different powers of the distance to the
# CLU manifold; each carries its own calibrated threshold.  Exact CLU inputs
# sit below 1e-13 on every test; random NCLU samples were never observed
# under 1e-8 on the extremality gap, 1e-9 on the polynomial residuals or
# 1e-7 on the invariant imaginary part.
# Extremality gap at or below which E1 is extremal, also the class-2 and class-3 branch checks; absolute.
TOL_CLU = 1e-10
# |Im ctilde^2| at or below which ctilde^2 is real; absolute, raised by the tau zero.
_TOL_REALITY = 1e-10
# Residual of a polynomial CLU condition at or below which it holds; absolute.
_TOL_POLY = 1e-11
# |Im J6| at or below which J6 is real (the CLU verdict); absolute (J6's error is relative to |J6|: ROADMAP items 1 and 8).
_TOL_J6_IMAG = 1e-11
# Decisive bands for the cross-criteria consistency check.  The extremality
# gap and the polynomial residuals detect the distance to the CLU manifold
# only quadratically, so small values of theirs cannot certify CLU; values
# above these bands, however, are sound NCLU proofs (exactly-CLU inputs stay
# below 1e-13 on all of them).
# Extremality gap of a CLU verdict above which it contradicts the verdict; absolute.
_NCLU_GAP = 1e-6
# Smaller polynomial residual of a CLU verdict above which it contradicts the verdict; absolute.
_NCLU_POLY = 1e-7
# |Im ctilde^2| of a CLU verdict above which it contradicts the verdict; absolute.
_NCLU_REALITY = 1e-6
# Smallest of c0, c1 and |ctilde| from which the cross-overlap reality check applies; absolute.
_PINNED_OVERLAP = 1e-4

# --- measures: E1..E6 and their inversion ---------------------------------

# Spread of the family's 1|23 entropies at or below which E6 reads 0; absolute.
TOL_E6 = 1e-9
# Distance of a measure from its closed trigonometric form, the cross-checks; absolute.
_TOL_XCHECK = 1e-10
# Largest measure residual at or below which an inversion candidate is accepted; absolute.
_TOL_MATCH = 1e-6
# The same inside the a ~ b band, where the gate angle and its phases are known only to O(a - b); absolute (ROADMAP item 12).
_TOL_MATCH_NEAR_MAXENT = 2e-2
# |a^2 - b^2| at or below which the wider match applies; absolute (ROADMAP item 12).
_BAND_NEAR_MAXENT = 1e-4
# cos^2 beta (sin^2 beta) at or below which inversion puts beta on pi/2 (0); absolute (inputs carry sqrt-of-rounding errors: ROADMAP item 4).
_TOL_BETA_EDGE = 1e-9
# Decimals of the angle key that drops repeated inversion candidates; absolute, 1e-8 on angles (ROADMAP item 4).
_DEDUP_DECIMALS = 8

# --- gensim ---------------------------------------------------------------

# Generation outcome probability below which it counts as vanishing; absolute.
_PROB_FLOOR = 1e-14

# --- cli: records and the pass bounds of the verify suites ----------------

# Amplitude norm of a record below which it is not normalizable; absolute.
_MIN_NORM = 1e-12
# Monogamy residual |Ca23^2 - C23^2 - tangle|; absolute.
_BOUND_MONOGAMY = 1e-9
# Drift of the measures, of J1..J5 and of |J6| under random local unitaries; absolute.
_BOUND_DRIFT = 1e-8
# |sigma_plus - p| of the Schmidt weight oracle; absolute.
_BOUND_SIGMA = 1e-9
# Residual of the det tau closed form; absolute.
_BOUND_DET_TAU = 1e-8
# Distance of C23 and Ca23 from their closed forms; absolute.
_BOUND_CLOSED_FORM = 1e-9
# lambda1 of a sampled standard form above which the det tau oracle runs on it; absolute.
_ORACLE_MIN_LAMBDA1 = 1e-6
# Deviation of outcome probabilities from 1/256 and of member aggregates from 1/4; absolute.
_BOUND_PROBABILITY = 1e-12
# Entanglement gap of the two measurement branches; absolute.
_BOUND_BRANCH = 1e-9
# 1 - |<witnessed input|reconstruction>|; absolute.
_BOUND_WITNESS = 1e-9
