package pipeline_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bwtmatch/server"
	"bwtmatch/server/internal/pipeline"
)

// shape renders a type's JSON-relevant structure: field names, tags and
// types, recursing through structs and slices so that server.Read and
// pipeline.Read compare by content rather than by name.
func shape(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Slice:
		return "[]" + shape(t.Elem())
	case reflect.Struct:
		var fields []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			fields = append(fields, fmt.Sprintf("%s %s `%s`", f.Name, shape(f.Type), f.Tag))
		}
		return "struct{" + strings.Join(fields, "; ") + "}"
	default:
		return t.String()
	}
}

// TestWireShapes pins the pipeline's decode targets to the client-facing
// wire types in package server, which this package cannot import.
func TestWireShapes(t *testing.T) {
	for _, c := range []struct{ wire, decode any }{
		{server.SearchRequest{}, pipeline.Request{}},
		{server.Read{}, pipeline.Read{}},
	} {
		want, got := shape(reflect.TypeOf(c.wire)), shape(reflect.TypeOf(c.decode))
		if got != want {
			t.Errorf("%T drifted from %T:\n got %s\nwant %s", c.decode, c.wire, got, want)
		}
	}
	if pipeline.HeaderRequestID != server.HeaderRequestID {
		t.Errorf("HeaderRequestID %q, server uses %q", pipeline.HeaderRequestID, server.HeaderRequestID)
	}
}
