package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"pstore/internal/b2w"
	"pstore/internal/client"
	"pstore/internal/wire"
)

// request is one generated B2W transaction.
type request struct {
	txn  string
	key  string
	args any
}

// writeTxns are the B2W procedures that change data; sync_repl sends only
// these.
var writeTxns = []string{
	b2w.TxnAddLineToCart, b2w.TxnDeleteLineFromCart, b2w.TxnDeleteCart,
	b2w.TxnReserveCart, b2w.TxnReserveStock, b2w.TxnPurchaseStock,
	b2w.TxnCancelStockReservation, b2w.TxnCreateStockTransaction,
	b2w.TxnUpdateStockTransaction, b2w.TxnCreateCheckout,
	b2w.TxnCreateCheckoutPayment, b2w.TxnAddLineToCheckout,
	b2w.TxnDeleteLineFromCheckout, b2w.TxnDeleteCheckout,
}

// writeMix is b2w.DefaultMix restricted to the write procedures, with the
// same relative weights.
func writeMix() b2w.Mix {
	all := b2w.DefaultMix()
	m := b2w.Mix{}
	for _, name := range writeTxns {
		m[name] = all[name]
	}
	return m
}

// generator draws B2W transactions the way b2w.Driver does: the type by
// mix weight, then a uniformly random key from the loaded pools and the
// procedure's arguments. The same seed yields the same sequence. The
// driver itself is not reused because it neither exposes single requests
// nor times them one by one, which the closed loops and the open loop's
// due-time latency need.
type generator struct {
	rng   *rand.Rand
	spec  b2w.LoadSpec
	names []string
	cumul []float64
	total float64
}

func newGenerator(seed int64, spec b2w.LoadSpec, mix b2w.Mix) (*generator, error) {
	g := &generator{rng: rand.New(rand.NewSource(seed)), spec: spec}
	// Iterate the canonical name list so the draw order does not depend on
	// map iteration.
	for _, name := range b2w.AllTxns {
		if w := mix[name]; w > 0 {
			g.total += w
			g.names = append(g.names, name)
			g.cumul = append(g.cumul, g.total)
		}
	}
	if g.total == 0 {
		return nil, errors.New("perfbench: mix has no positive weights")
	}
	return g, nil
}

func (g *generator) next() request {
	x := g.rng.Float64() * g.total
	name := g.names[len(g.names)-1]
	for i, c := range g.cumul {
		if x < c {
			name = g.names[i]
			break
		}
	}
	key, args := g.keyAndArgs(name)
	return request{txn: name, key: key, args: args}
}

func (g *generator) keyAndArgs(name string) (string, any) {
	rng := g.rng
	cart := b2w.CartKey(rng.Intn(g.spec.Carts))
	checkout := b2w.CheckoutKey(rng.Intn(g.spec.Checkouts))
	sku := b2w.StockKey(rng.Intn(g.spec.Stocks))
	line := b2w.LineArgs{
		SKU:       sku,
		Quantity:  1 + rng.Intn(3),
		UnitPrice: int64(500 + rng.Intn(100000)),
		Customer:  fmt.Sprintf("customer-%06d", rng.Intn(1_000_000)),
	}
	switch name {
	case b2w.TxnAddLineToCart, b2w.TxnDeleteLineFromCart:
		return cart, line
	case b2w.TxnGetCart, b2w.TxnDeleteCart, b2w.TxnReserveCart:
		return cart, nil
	case b2w.TxnGetStock, b2w.TxnGetStockQuantity:
		return sku, nil
	case b2w.TxnReserveStock, b2w.TxnPurchaseStock, b2w.TxnCancelStockReservation:
		return sku, b2w.QuantityArgs{Quantity: 1 + rng.Intn(2)}
	case b2w.TxnCreateStockTransaction:
		return b2w.StockTxKey(rng.Intn(g.spec.Stocks * 4)), b2w.StockTxArgs{CartID: cart, SKU: sku, Quantity: 1}
	case b2w.TxnGetStockTransaction:
		return b2w.StockTxKey(rng.Intn(g.spec.Stocks * 4)), nil
	case b2w.TxnUpdateStockTransaction:
		status := b2w.StockTxPurchased
		if rng.Intn(3) == 0 {
			status = b2w.StockTxCancelled
		}
		return b2w.StockTxKey(rng.Intn(g.spec.Stocks * 4)), b2w.StatusArgs{Status: status}
	case b2w.TxnCreateCheckout:
		return checkout, b2w.CheckoutArgs{CartID: cart, Lines: []b2w.CartLine{{SKU: sku, Quantity: 1, UnitPrice: line.UnitPrice}}}
	case b2w.TxnCreateCheckoutPayment:
		return checkout, b2w.Payment{Method: "credit", Amount: line.UnitPrice}
	case b2w.TxnAddLineToCheckout, b2w.TxnDeleteLineFromCheckout:
		return checkout, line
	default: // GetCheckout, DeleteCheckout
		return checkout, nil
	}
}

// isBusinessError reports whether err is a B2W outcome the workload
// expects, such as out-of-stock, rather than a failure of the system. Over
// the wire these arrive as txn_error responses carrying the procedure's
// error text.
func isBusinessError(err error) bool {
	if errors.Is(err, b2w.ErrInsufficientStock) || errors.Is(err, b2w.ErrNotFound) {
		return true
	}
	var re *client.RemoteError
	return errors.As(err, &re) && re.Code == wire.CodeTxn &&
		(strings.Contains(re.Message, b2w.ErrInsufficientStock.Error()) ||
			strings.Contains(re.Message, b2w.ErrNotFound.Error()))
}
