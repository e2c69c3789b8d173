
# Bitboard puzzle search in the style of meteor_contest: place pieces on a
# small board using bitmask backtracking.
WIDTH = 5
HEIGHT = 5

def first_free(used, cells):
    i = 0
    while i < cells:
        if used & (1 << i) == 0:
            return i
        i += 1
    return -1

def solve(used, pieces_left, masks, count, depth):
    cells = WIDTH * HEIGHT
    if pieces_left == 0:
        return count + 1
    if depth > 6:
        return count
    anchor = first_free(used, cells)
    if anchor < 0:
        return count
    for mask in masks:
        shifted = mask << anchor
        if shifted >= (1 << cells):
            continue
        if shifted & (1 << anchor) == 0:
            continue
        if used & shifted == 0:
            count = solve(used | shifted, pieces_left - 1, masks, count, depth + 1)
    return count

masks = [3, 7, 35, 33, 97, 1, 15]
print(solve(0, 4, masks, 0, 0))
