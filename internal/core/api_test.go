package core

import (
	"context"
	"reflect"
	"testing"
)

// TestFallibleMethodsTakeContextFirst guards the API shape: every exported
// method of *Input, *Solver and *Pyramid that returns an error takes a
// context.Context as its first parameter, so a long-running call has one
// entry point and no context-free twin.
func TestFallibleMethodsTakeContextFirst(t *testing.T) {
	ctxType := reflect.TypeOf((*context.Context)(nil)).Elem()
	errType := reflect.TypeOf((*error)(nil)).Elem()
	for _, typ := range []reflect.Type{
		reflect.TypeOf(&Input{}),
		reflect.TypeOf(&Solver{}),
		reflect.TypeOf(&Pyramid{}),
	} {
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			fn := m.Type // In(0) is the receiver
			fallible := false
			for o := 0; o < fn.NumOut(); o++ {
				fallible = fallible || fn.Out(o) == errType
			}
			if fallible && (fn.NumIn() < 2 || fn.In(1) != ctxType) {
				t.Errorf("%v.%s returns an error but does not take a context.Context first", typ, m.Name)
			}
		}
	}
}
