"""Hand-known values for the benchmark's reference formulas.

Run with: python3 -m pytest perfbench/test_reference.py
"""

from reference import (
    betti_euler,
    composition_count,
    linear_strand,
    partition_count,
    regularity,
    schur_dimension,
)


def test_partition_count_small_values():
    # 5 = 5 = 4+1 = 3+2 = 3+1+1 = 2+2+1 = 2+1+1+1 = 1+1+1+1+1
    assert [partition_count(5, k) for k in range(1, 6)] == [1, 3, 5, 6, 7]
    assert partition_count(0, 3) == 1


def test_partition_count_gives_the_paper_workload_jobs():
    # check_np(n=4, d=3, p=4, slack=1) visits one orbit per partition of
    # 3*deg into at most 5 parts, for deg in q+2..q+3 and q = 2, 3, 4
    windows = {2: (4, 5), 3: (5, 6), 4: (6, 7)}
    assert sum(partition_count(3 * deg, 5)
               for degs in windows.values() for deg in degs) == 718


def test_linear_strand_of_the_plane_cubic_embedding():
    assert [linear_strand(2, 3, p) for p in range(1, 7)] == [27, 105, 189, 189, 105, 27]


def test_linear_strand_of_the_quadric_embedding_of_p3():
    assert [linear_strand(3, 2, p) for p in range(1, 6)] == [20, 64, 90, 64, 20]


def test_euler_sums_see_the_single_nonlinear_syzygy():
    # beta_{7,9} = 1 for v_3(P^2) and beta_{6,8} = 1 for v_2(P^3) are the
    # only terms left in those degrees (the linear strand has ended)
    assert betti_euler(2, 3, 9) == -1
    assert betti_euler(3, 2, 7) == 0
    assert betti_euler(3, 2, 8) == 1
    assert betti_euler(2, 3, 0) == 1 and betti_euler(2, 3, 1) == 0


def test_regularity():
    assert regularity(2, 3) == 2
    assert regularity(3, 2) == 2
    assert regularity(4, 3) == 3


def test_schur_dimension():
    assert schur_dimension((2, 1), 3) == 8
    assert schur_dimension((3,), 3) == 10          # Sym^3 C^3
    assert schur_dimension((1, 1, 1), 4) == 4      # wedge^3 C^4
    assert schur_dimension((2, 2), 2) == 1         # det^2 of C^2
    assert schur_dimension((1, 1, 1), 2) == 0


def test_composition_count():
    assert composition_count(9, 3) == 55
    assert composition_count(6, 4) == 84
