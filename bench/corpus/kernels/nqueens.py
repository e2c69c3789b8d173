
def solve(n, row, cols, diag1, diag2):
    if row == n:
        return 1
    count = 0
    for col in xrange(n):
        d1 = row - col + n
        d2 = row + col
        if cols[col] == 0 and diag1[d1] == 0 and diag2[d2] == 0:
            cols[col] = 1
            diag1[d1] = 1
            diag2[d2] = 1
            count += solve(n, row + 1, cols, diag1, diag2)
            cols[col] = 0
            diag1[d1] = 0
            diag2[d2] = 0
    return count

n = 7
print(solve(n, 0, [0] * n, [0] * (2 * n + 1), [0] * (2 * n + 1)))
