
def monte_carlo(n):
    random.seed(17)
    under = 0
    for i in xrange(n):
        x = random.random()
        y = random.random()
        if x * x + y * y <= 1.0:
            under += 1
    return 4.0 * under / n

print("%.6f" % monte_carlo(40000))
