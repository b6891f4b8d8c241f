package expr;

import java.io.IOException;

/** Every receiver shape a call can have, and every reason it stays
 * unresolved. */
public class Receivers {

    Source field;

    Receivers() {
        super();
    }

    Receivers(int n) {
        this();
    }

    void run() {
    }

    void shapes(Source local, Object[] items) throws Exception {
        run();
        this.run();
        super.run();
        local.size();
        (local).size();
        Source.read();
        Missing.read();
        java.lang.System.exit(0);
        expr.Source.read();
        local.next.size();
        this.field.size();
        field.size();
        Source.open("a").next.size();
        "text".length();
        "text".trim().length();
        'c'.hashCode();
        42L.hashCode();
        ((Source) Source.supply(local)).size();
        ((Unknown) local).size();
        new Source().size();
        new Source().self().size();
        new Unknown().size();
        Source.open("b").size();
        (local.size() + Source.read()).hashCode();
        items[Source.read()].hashCode();
        (Source.ready() ? local : null).size();
        (local = Source.open("c")).size();
        (-Source.read()).hashCode();
        (local instanceof Object).hashCode();
        (Source::read).hashCode();
        (local.next).size();
        new Source().twice();
        Source.twice();
        local.missing(1, 2);
        Source.task(x -> x.run()).run();
        Source.task(() -> { Source.read(); }).run();
        undefined.call();
    }

    void inHandlers(Source local) {
        try {
            local.self().size();
        } catch (AppException e) {
            e.printStackTrace();
        } catch (IOException e) {
            (e).printStackTrace();
        } catch (IllegalStateException e) {
            ((Exception) e).printStackTrace();
        } catch (RuntimeException e) {
            System.err.println(e);
        }
        try {
            Source.read();
        } catch (IOException e) {
            e.getMessage().length();
            java.lang.System.exit(1);
        }
        try {
            Source.read();
        } catch (IOException e) {
            ;
        }
        try {
            Source.read();
        } catch (IOException e) {
            local.count++;
        }
        while (local.count > 0) {
            try {
                Source.read();
            } catch (IOException e) {
                continue;
            }
        }
    }
}

class Root {

    Root() {
        super();
    }

    void call() {
        super.call();
    }
}
