package service

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
)

// A JSON number cannot be ±Inf or NaN, and encoding/json refuses to
// encode one, yet a run's stats can overflow: a subnormal weight draws a
// key of +Inf, so the threshold becomes +Inf, and a weight sum can pass
// MaxFloat64. The stats types keep float64 fields and encode through
// MarshalFloats, which spells a non-finite value as the string "+Inf",
// "-Inf" or "NaN" (as the Prometheus text format does); UnmarshalFloats
// reads it back, so Go clients decode both forms.

// jsonFloat is a float64 that encodes a non-finite value as a string and
// a finite one exactly as encoding/json encodes a float64.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	switch v := float64(f); {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(float64(f))
}

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"+Inf"`:
		*f = jsonFloat(math.Inf(1))
	case `"-Inf"`:
		*f = jsonFloat(math.Inf(-1))
	case `"NaN"`:
		*f = jsonFloat(math.NaN())
	default:
		return json.Unmarshal(b, (*float64)(f))
	}
	return nil
}

// floatViews caches floatView's answer per struct type.
var floatViews sync.Map

// floatView returns struct type t with every float64 field retyped as
// jsonFloat. Names, tags and order stay, so encoding/json spells a view
// byte for byte as it spells t, except for non-finite values.
func floatView(t reflect.Type) reflect.Type {
	if v, ok := floatViews.Load(t); ok {
		return v.(reflect.Type)
	}
	fields := make([]reflect.StructField, t.NumField())
	for i := range fields {
		fields[i] = t.Field(i)
		if fields[i].Type == reflect.TypeFor[float64]() {
			fields[i].Type = reflect.TypeFor[jsonFloat]()
		}
	}
	v, _ := floatViews.LoadOrStore(t, reflect.StructOf(fields))
	return v.(reflect.Type)
}

// copyFields copies src's fields into dst's, which has the same fields
// up to floatView's retyping.
func copyFields(dst, src reflect.Value) {
	for i := range dst.NumField() {
		d, s := dst.Field(i), src.Field(i)
		if d.Kind() == reflect.Float64 {
			d.SetFloat(s.Float())
		} else {
			d.Set(s)
		}
	}
}

// MarshalFloats encodes *v, a struct with exported fields only, as
// encoding/json does, except that a non-finite float64 field becomes the
// string "+Inf", "-Inf" or "NaN". It is the MarshalJSON of the service's
// Stats and of node mode's.
func MarshalFloats(v any) ([]byte, error) {
	src := reflect.ValueOf(v).Elem()
	view := reflect.New(floatView(src.Type()))
	copyFields(view.Elem(), src)
	return json.Marshal(view.Interface())
}

// UnmarshalFloats decodes what MarshalFloats encodes into *v, and plain
// numbers as encoding/json does.
func UnmarshalFloats(b []byte, v any) error {
	dst := reflect.ValueOf(v).Elem()
	view := reflect.New(floatView(dst.Type()))
	copyFields(view.Elem(), dst)
	if err := json.Unmarshal(b, view.Interface()); err != nil {
		return err
	}
	copyFields(dst, view.Elem())
	return nil
}

// MarshalJSON spells a non-finite threshold or weight sum as a string
// (see MarshalFloats).
func (s Stats) MarshalJSON() ([]byte, error) { return MarshalFloats(&s) }

// UnmarshalJSON reads what MarshalJSON writes.
func (s *Stats) UnmarshalJSON(b []byte) error { return UnmarshalFloats(b, s) }
