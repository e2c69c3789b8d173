SALT = 0
# Object-shaped handler: an order with line items, method calls and
# attribute traffic, rendered as one summary line.
class Line:
    def __init__(self, sku, qty, cents):
        self.sku = sku
        self.qty = qty
        self.cents = cents

    def total(self):
        return self.qty * self.cents

class Order:
    def __init__(self, oid):
        self.oid = oid
        self.lines = []

    def add(self, line):
        self.lines.append(line)

    def subtotal(self):
        t = 0
        for l in self.lines:
            t += l.total()
        return t

    def tax(self):
        return self.subtotal() * 8 // 100

order = Order(SALT)
for i in xrange(10):
    order.add(Line("sku-%d" % (SALT % 1000 + i), 1 + i % 3, 250 + 35 * i))
sub = order.subtotal()
print("order %d: %d lines, subtotal %d, tax %d, total %d" % (order.oid, len(order.lines), sub, order.tax(), sub + order.tax()))
print(order.lines[9].sku)
